//! Concurrency correctness of the invocation plane.
//!
//! The `&self` invoke path (DESIGN.md §10) claims three properties that
//! no type signature can enforce, so this suite pins them down:
//!
//! 1. **Conservation** — N threads hammering a shared `Arc<Cluster>`
//!    never lose or duplicate a warm sandbox: after every in-flight
//!    invocation drains, the fleet's pools hold exactly the provisioned
//!    inventory again, and no sandbox id is served to two threads at
//!    once.
//! 2. **Stats consistency** — the fleet-aggregate [`PoolStats`] add up:
//!    every successful pool-backed invocation is exactly one hit, with
//!    no faults enabled there are no evictions, and misses only come
//!    from transient all-in-flight windows.
//! 3. **Single-threaded determinism** — one driver thread observes
//!    bit-identical records run over run; the concurrency machinery
//!    (sharded pools, atomics, CAS routing) costs nothing in
//!    reproducibility.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use horse_faas::{Cluster, DispatchPolicy, FaasError, StartStrategy};
use horse_vmm::SandboxConfig;
use horse_workloads::Category;

const HOSTS: usize = 4;
const PER_HOST: usize = 4;
const THREADS: usize = 8;
const ROUNDS: usize = 200;

fn horse_cluster(seed: u64) -> (Cluster, horse_faas::FunctionId) {
    let mut cluster = Cluster::new(HOSTS, DispatchPolicy::RoundRobin, seed);
    let cfg = SandboxConfig::builder()
        .vcpus(2)
        .ull(true)
        .build()
        .expect("static config");
    let f = cluster.register("filter", Category::Cat3, cfg);
    cluster
        .provision_all(f, PER_HOST, StartStrategy::Horse)
        .expect("provision");
    (cluster, f)
}

/// Invoke with bounded retries over transient all-in-flight windows.
/// Returns `None` if the pool stayed dry for the whole retry budget
/// (which the callers treat as a failure).
fn invoke_retrying(
    cluster: &Cluster,
    f: horse_faas::FunctionId,
) -> Option<horse_faas::InvocationRecord> {
    for _ in 0..10_000 {
        match cluster.invoke(f, StartStrategy::Horse) {
            Ok((_, record)) => return Some(record),
            Err(FaasError::NoWarmSandbox { .. }) => std::thread::yield_now(),
            Err(e) => panic!("unexpected invoke error: {e}"),
        }
    }
    None
}

#[test]
fn concurrent_invocations_conserve_the_warm_inventory() {
    let (cluster, f) = horse_cluster(42);
    let provisioned: usize = (0..HOSTS)
        .map(|i| {
            cluster
                .host(horse_faas::HostId(i))
                .pool_size(f, StartStrategy::Horse)
        })
        .sum();
    assert_eq!(provisioned, HOSTS * PER_HOST);

    let cluster = Arc::new(cluster);
    let successes = AtomicU64::new(0);
    let dry = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    match invoke_retrying(&cluster, f) {
                        Some(record) => {
                            assert!(record.init_ns > 0, "resume work is never free");
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            dry.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(
        dry.load(Ordering::Relaxed),
        0,
        "the pool must never stay dry: {} sandboxes, {} threads",
        HOSTS * PER_HOST,
        THREADS
    );
    assert_eq!(successes.load(Ordering::Relaxed) as usize, THREADS * ROUNDS);

    // Every in-flight sandbox re-paused into its pool: the inventory is
    // intact — nothing lost to a race, nothing duplicated.
    let after: usize = (0..HOSTS)
        .map(|i| {
            cluster
                .host(horse_faas::HostId(i))
                .pool_size(f, StartStrategy::Horse)
        })
        .sum();
    assert_eq!(after, HOSTS * PER_HOST, "warm inventory conserved");

    // Stats add up: one hit per successful invocation, zero evictions
    // (no keep-alive clock advance, no faults).
    let stats = cluster.aggregate_pool_stats(f, StartStrategy::Horse);
    assert_eq!(stats.hits, (THREADS * ROUNDS) as u64);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn no_sandbox_is_served_to_two_threads_at_once() {
    let (cluster, f) = horse_cluster(7);
    let cluster = Arc::new(cluster);
    // Track in-flight (host, invocation-slot) exclusivity through the
    // record's trace id; with the recorder disabled the id is 0, so key
    // on the sandbox identity instead: two threads holding the same
    // sandbox at the same time would double-free on re-pause and panic
    // inside the VMM. Run with the recorder enabled to also check that
    // concurrently minted invocation ids never collide.
    let mut shared = Cluster::new(2, DispatchPolicy::RoundRobin, 11);
    let cfg = SandboxConfig::builder().ull(true).build().unwrap();
    let g = shared.register("nat", Category::Cat2, cfg);
    let recorder = horse_telemetry::Recorder::enabled();
    shared.set_recorder(recorder);
    shared.provision_all(g, 4, StartStrategy::Horse).unwrap();
    let shared = Arc::new(shared);

    let ids = Mutex::new(HashSet::new());
    let total = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ROUNDS / 2 {
                    if let Some(record) = invoke_retrying(&shared, g) {
                        total.fetch_add(1, Ordering::Relaxed);
                        assert!(record.invocation > 0, "traced run mints ids");
                        assert!(
                            ids.lock().unwrap().insert(record.invocation),
                            "invocation id {} minted twice",
                            record.invocation
                        );
                    }
                }
            });
        }
    });
    assert_eq!(
        ids.lock().unwrap().len() as u64,
        total.load(Ordering::Relaxed),
        "every successful invocation got a unique trace id"
    );
    // The quieter cluster from the helper stays untouched by this test,
    // but its inventory must still be intact (nothing leaks across
    // instances).
    let untouched: usize = (0..HOSTS)
        .map(|i| {
            cluster
                .host(horse_faas::HostId(i))
                .pool_size(f, StartStrategy::Horse)
        })
        .sum();
    assert_eq!(untouched, HOSTS * PER_HOST);
}

#[test]
fn single_threaded_runs_are_bit_identical() {
    let run = |seed: u64| -> Vec<(usize, u64, u64)> {
        let (cluster, f) = horse_cluster(seed);
        (0..100)
            .map(|_| {
                let (host, record) = cluster.invoke(f, StartStrategy::Horse).expect("invoke");
                (host.0, record.init_ns, record.exec_ns)
            })
            .collect()
    };
    assert_eq!(run(42), run(42), "same seed, same records, same routing");
    assert_ne!(run(42), run(1337), "seeds matter (exec sampling differs)");
}

#[test]
fn mixed_strategies_under_contention_keep_pools_separate() {
    let mut cluster = Cluster::new(2, DispatchPolicy::RoundRobin, 3);
    let vanilla = SandboxConfig::builder().vcpus(1).build().unwrap();
    let ull = SandboxConfig::builder().vcpus(2).ull(true).build().unwrap();
    let warm_fn = cluster.register("nat", Category::Cat2, vanilla);
    let horse_fn = cluster.register("filter", Category::Cat3, ull);
    cluster
        .provision_all(warm_fn, 3, StartStrategy::Warm)
        .unwrap();
    cluster
        .provision_all(horse_fn, 3, StartStrategy::Horse)
        .unwrap();
    let cluster = Arc::new(cluster);

    std::thread::scope(|scope| {
        for t in 0..4 {
            let (f, strategy) = if t % 2 == 0 {
                (warm_fn, StartStrategy::Warm)
            } else {
                (horse_fn, StartStrategy::Horse)
            };
            let cluster = &cluster;
            scope.spawn(move || {
                for _ in 0..100 {
                    for _ in 0..10_000 {
                        match cluster.invoke(f, strategy) {
                            Ok(_) => break,
                            Err(FaasError::NoWarmSandbox { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected invoke error: {e}"),
                        }
                    }
                }
            });
        }
    });

    // Each strategy's inventory survived independently.
    for (f, strategy) in [
        (warm_fn, StartStrategy::Warm),
        (horse_fn, StartStrategy::Horse),
    ] {
        let size: usize = (0..2)
            .map(|i| cluster.host(horse_faas::HostId(i)).pool_size(f, strategy))
            .sum();
        assert_eq!(size, 6, "{strategy} pool conserved");
        let stats = cluster.aggregate_pool_stats(f, strategy);
        assert_eq!(stats.hits, 200, "{strategy} hits == successful invocations");
        assert_eq!(stats.evictions, 0);
    }
}

/// Keep-alive eviction racing the invoke path. Every pooled sandbox of
/// a 1 ns-TTL pool is doomed as soon as the clock moves: a sweeper
/// thread advances it (the eager sweep of `advance_to`) while drivers
/// cold-start sandboxes into the pool and warm-take from it (the lazy
/// eviction of `take`, whose doomed ids *any* thread's next drain may
/// reap). Whichever path gives a sandbox up, the VMM must destroy it
/// exactly once: a second destroy panics the reaping thread, and a
/// lost id would stay live without being pooled.
#[test]
fn evicted_sandboxes_are_destroyed_exactly_once_under_contention() {
    use horse_faas::{HostId, KeepAlive};
    use horse_sim::{SimDuration, SimTime};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    const DRIVERS: usize = 3;
    let mut cluster = Cluster::new(HOSTS, DispatchPolicy::RoundRobin, 11);
    let vanilla = SandboxConfig::builder().vcpus(1).build().unwrap();
    let f = cluster.register("nat", Category::Cat2, vanilla);
    for host in 0..HOSTS {
        cluster.host(HostId(host)).set_keep_alive(
            f,
            StartStrategy::Warm,
            KeepAlive::Ttl(SimDuration::from_nanos(1)),
        );
    }
    let cluster = &cluster;
    let start = Barrier::new(DRIVERS + 1);
    let driving = AtomicBool::new(true);
    let (served, dry) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..DRIVERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        // Each round waits for the sweeper's next tick, so
                        // what the previous round pooled has expired: the
                        // sweep (host 0 first, this round runs while it
                        // is still on the other hosts) and this round's
                        // take race for it.
                        let seen = cluster.host(HostId(0)).now();
                        while cluster.host(HostId(0)).now() <= seen {
                            std::thread::yield_now();
                        }
                        cluster
                            .invoke(f, StartStrategy::Cold)
                            .expect("cold starts need no pool");
                        match cluster.invoke(f, StartStrategy::Warm) {
                            Ok(_) => served.fetch_add(1, Ordering::Relaxed),
                            Err(FaasError::NoWarmSandbox { .. }) => {
                                dry.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(e) => panic!("unexpected invoke error: {e}"),
                        };
                    }
                })
            })
            .collect();
        scope.spawn(|| {
            start.wait();
            let mut now = SimTime::ZERO;
            while driving.load(Ordering::Acquire) {
                now += SimDuration::from_nanos(10);
                cluster.advance_to(now);
            }
        });
        for driver in drivers {
            driver.join().expect("a driver panicked (double destroy?)");
        }
        driving.store(false, Ordering::Release);
    });

    assert_eq!(
        served.load(Ordering::Relaxed) + dry.load(Ordering::Relaxed),
        (DRIVERS * ROUNDS) as u64
    );
    let evictions = cluster
        .aggregate_pool_stats(f, StartStrategy::Warm)
        .evictions;
    assert!(evictions > 0, "the sweeper and the takes evicted something");
    let (mut created, mut destroyed) = (0, 0);
    for host in 0..HOSTS {
        let host = cluster.host(HostId(host));
        let pooled = host.pool_size(f, StartStrategy::Warm);
        let vmm = host.vmm();
        assert_eq!(
            vmm.sandbox_count(),
            pooled,
            "a live sandbox outside the pool is an evicted id nobody reaped"
        );
        assert_eq!(vmm.stats().created - vmm.stats().destroyed, pooled as u64);
        created += vmm.stats().created;
        destroyed += vmm.stats().destroyed;
    }
    assert_eq!(
        created,
        (DRIVERS * ROUNDS) as u64,
        "one boot per cold start"
    );
    assert_eq!(destroyed, evictions, "one destroy per evicted sandbox");
}
