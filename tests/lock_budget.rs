//! The steady-state lock budget of the reliability-plane request path.
//!
//! With the profiling plane on, every *timed* lock acquisition of the
//! data plane is counted per site (`horse_telemetry::contention`). A
//! warm request through `Cluster::submit_ring` may cost exactly one —
//! its host's `Mutex<Vmm>` — plus one more when it launches a hedge.
//! Until PR 14 it cost ≈ 9.75: every pool take drained the doomed lists
//! of all 8 warm-pool shards to find them empty.
//!
//! The counters are process-global, so this suite lives in a test binary
//! of its own and its cases take turns.

use std::sync::{Mutex, MutexGuard, PoisonError};

use horse::prelude::*;
use horse::telemetry::contention::{self, ContentionSite};
use horse::telemetry::profiling::ProfilingScope;
use horse_faas::{Disposition, Request, SubmissionRing};
use horse_reliability::{ReliabilityConfig, RequestClass};

const HOSTS: usize = 8;
const PER_HOST: usize = 4;
const BATCH: usize = 32;
const REQUESTS: usize = 1_000;

fn serialized() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Timed acquisitions so far: `(pool_doomed_list, every site)`.
fn acquisitions() -> (u64, u64) {
    let sites = contention::snapshot();
    let doomed = sites
        .iter()
        .find(|s| s.site == ContentionSite::PoolDoomedList)
        .expect("every site is in the snapshot")
        .acquisitions;
    (doomed, sites.iter().map(|s| s.acquisitions).sum())
}

/// The `reliab_open` fleet in miniature: 8 hosts, a uLL function served
/// by `Horse` starts and a background one served by `Warm` starts.
fn fleet() -> (Cluster, [Request; 2]) {
    let mut cluster = Cluster::new(HOSTS, DispatchPolicy::RoundRobin, 42);
    cluster.set_reliability(ReliabilityConfig::with_seed(42));
    let ull = SandboxConfig::builder().vcpus(2).ull(true).build().unwrap();
    let vanilla = SandboxConfig::builder().vcpus(1).build().unwrap();
    let filter = cluster.register("filter", Category::Cat3, ull);
    let nat = cluster.register("nat", Category::Cat2, vanilla);
    cluster
        .provision_all(filter, PER_HOST, StartStrategy::Horse)
        .unwrap();
    cluster
        .provision_all(nat, PER_HOST, StartStrategy::Warm)
        .unwrap();
    let requests = [
        Request {
            function: filter,
            strategy: StartStrategy::Horse,
            class: RequestClass::Ull,
            deadline_ns: Some(100_000),
        },
        Request {
            function: nat,
            strategy: StartStrategy::Warm,
            class: RequestClass::Background,
            deadline_ns: Some(50_000_000),
        },
    ];
    (cluster, requests)
}

/// Pushes `count` requests (every tenth one background) through
/// `submit_ring` in batches, returning the dispositions.
fn drive(cluster: &Cluster, requests: &[Request; 2], count: usize) -> Vec<Disposition> {
    let ring = SubmissionRing::with_capacity(2 * BATCH);
    let mut dispositions = Vec::with_capacity(count);
    for first in (0..count).step_by(BATCH) {
        for i in first..(first + BATCH).min(count) {
            ring.push(requests[usize::from(i % 10 == 9)])
                .expect("a batch fits the ring");
        }
        dispositions.extend(cluster.submit_ring(&ring));
    }
    dispositions
}

#[test]
fn a_warm_request_takes_one_timed_lock() {
    let _turn = serialized();
    let (cluster, requests) = fleet();
    // Arm the hedge profiles first, so the measured window hedges like
    // steady state does.
    drive(&cluster, &requests, 4 * REQUESTS);
    let hedges_before = cluster.reliability_snapshot().hedges_launched;

    let _profiled = ProfilingScope::enter();
    let (doomed_before, total_before) = acquisitions();
    let dispositions = drive(&cluster, &requests, REQUESTS);
    let (doomed_after, total_after) = acquisitions();

    assert_eq!(dispositions.len(), REQUESTS);
    assert!(
        dispositions
            .iter()
            .all(|d| matches!(d, Disposition::Completed { .. })),
        "every warm request completes"
    );
    assert_eq!(
        doomed_after - doomed_before,
        0,
        "nothing was evicted, so no doomed list is ever locked"
    );
    let hedges = cluster.reliability_snapshot().hedges_launched - hedges_before;
    let locks = total_after - total_before;
    assert_eq!(
        locks,
        REQUESTS as u64 + hedges,
        "one Mutex<Vmm> window per attempt and nothing else"
    );
    let per_request = locks as f64 / REQUESTS as f64;
    assert!(
        per_request <= 1.2,
        "{per_request:.3} timed locks per warm request (was ≈ 9.75)"
    );
}

#[test]
fn evictions_reach_the_doomed_lists_and_every_id_is_reaped() {
    let _turn = serialized();
    let (cluster, requests) = fleet();
    let background = requests[1];
    // Let the provisioned background pools go stale without a sweep:
    // the clock moves while they are still provisioned (no expiry), then
    // the policy drops to a 1 ns TTL — only `take`'s lazy eviction
    // stands between a request and a stale sandbox now.
    cluster.advance_to(SimTime::ZERO + SimDuration::from_secs(1));
    let sandboxes = |cluster: &Cluster| -> (u64, usize) {
        (0..HOSTS)
            .map(|i| {
                let vmm = cluster.host(HostId(i)).vmm();
                (vmm.stats().destroyed, vmm.sandbox_count())
            })
            .fold((0, 0), |(d, n), (hd, hn)| (d + hd, n + hn))
    };
    let (destroyed_before, live_before) = sandboxes(&cluster);
    for host in 0..HOSTS {
        cluster.host(HostId(host)).set_keep_alive(
            background.function,
            background.strategy,
            KeepAlive::Ttl(SimDuration::from_nanos(1)),
        );
    }

    let _profiled = ProfilingScope::enter();
    let (doomed_before, _) = acquisitions();
    let ring = SubmissionRing::with_capacity(2 * BATCH);
    for _ in 0..2 * HOSTS {
        ring.push(background).expect("the ring has room");
    }
    let dispositions = cluster.submit_ring(&ring);
    let (doomed_after, _) = acquisitions();

    assert!(
        !dispositions
            .iter()
            .any(|d| matches!(d, Disposition::Completed { .. })),
        "no stale sandbox is ever handed out"
    );
    let stale = (HOSTS * PER_HOST) as u64;
    let evictions = cluster
        .aggregate_pool_stats(background.function, background.strategy)
        .evictions;
    assert_eq!(evictions, stale, "every stale entry was evicted by a take");
    assert!(
        doomed_after - doomed_before >= stale,
        "each eviction went through a doomed list ({} acquisitions)",
        doomed_after - doomed_before
    );
    let (destroyed_after, live_after) = sandboxes(&cluster);
    assert_eq!(destroyed_after - destroyed_before, stale, "all reaped");
    assert_eq!(live_before - live_after, stale as usize, "none left behind");
}
