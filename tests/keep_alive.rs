//! Platform-level keep-alive behaviour: pooled sandboxes expire, warm
//! starts degrade to misses, provisioned pools never shrink.

use horse::prelude::*;
use horse_faas::FaasError;
use horse_workloads::Category;

fn cfg() -> SandboxConfig {
    SandboxConfig::builder().vcpus(1).ull(true).build().unwrap()
}

#[test]
fn cold_started_sandboxes_expire_after_keep_alive_ttl() {
    let mut platform = FaasPlatform::new(PlatformConfig::default());
    let f = platform.register("nat", Category::Cat2, cfg());

    // A cold start leaves a warm sandbox behind (keep-alive).
    platform.invoke(f, StartStrategy::Cold).unwrap();
    assert_eq!(platform.pool_size(f, StartStrategy::Warm), 1);

    // Within the TTL (default 10 min), the warm start hits.
    platform.advance_to(SimTime::ZERO + SimDuration::from_secs(60));
    platform.invoke(f, StartStrategy::Warm).unwrap();
    assert_eq!(platform.pool_stats(f, StartStrategy::Warm).hits, 1);

    // After the TTL elapses untouched, the sandbox is evicted and the
    // warm start misses.
    platform.advance_to(SimTime::ZERO + SimDuration::from_secs(60 + 601));
    assert_eq!(platform.pool_size(f, StartStrategy::Warm), 0);
    assert_eq!(platform.pool_stats(f, StartStrategy::Warm).evictions, 1);
    let err = platform.invoke(f, StartStrategy::Warm).unwrap_err();
    assert!(matches!(err, FaasError::NoWarmSandbox { .. }));
    assert_eq!(platform.pool_stats(f, StartStrategy::Warm).misses, 1);
}

#[test]
fn provisioned_horse_pool_survives_any_idle_time() {
    let mut platform = FaasPlatform::new(PlatformConfig::default());
    let f = platform.register("filter", Category::Cat3, cfg());
    platform.provision(f, 2, StartStrategy::Horse).unwrap();

    // A day of idleness: provisioned concurrency never expires (that is
    // what the premium options sell).
    platform.advance_to(SimTime::ZERO + SimDuration::from_secs(86_400));
    assert_eq!(platform.pool_size(f, StartStrategy::Horse), 2);
    let r = platform.invoke(f, StartStrategy::Horse).unwrap();
    assert!(r.init_ns < 300);
    assert_eq!(platform.pool_stats(f, StartStrategy::Horse).evictions, 0);
}

#[test]
fn eviction_releases_all_sandbox_resources() {
    let mut platform = FaasPlatform::new(PlatformConfig::default());
    let f = platform.register("fw", Category::Cat1, cfg());
    for _ in 0..3 {
        platform.invoke(f, StartStrategy::Cold).unwrap();
    }
    assert_eq!(platform.pool_size(f, StartStrategy::Warm), 3);
    platform.advance_to(SimTime::ZERO + SimDuration::from_secs(3_600));
    assert_eq!(platform.pool_size(f, StartStrategy::Warm), 0);
    assert_eq!(
        platform.vmm().sandbox_count(),
        0,
        "evicted sandboxes destroyed"
    );
    assert!(platform.vmm().sched().arena().is_empty(), "no leaked nodes");
}

#[test]
fn clock_is_monotonic() {
    let platform = FaasPlatform::new(PlatformConfig::default());
    platform.advance_to(SimTime::ZERO + SimDuration::from_secs(10));
    assert_eq!(platform.now(), SimTime::ZERO + SimDuration::from_secs(10));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        platform.advance_to(SimTime::ZERO);
    }));
    assert!(result.is_err(), "going backwards must panic");
}
