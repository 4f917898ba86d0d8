//! `ull_batch_2t` — closed loop, two drivers on one shared cluster, each
//! claiming 32 requests per `Cluster::invoke_batch` (per-host
//! `SubmissionRing`s → `FaasPlatform::invoke_batch`), with `count: 0`
//! mop-ups on `NoWarmSandbox`. Per-op latency is the batch's wall time
//! divided by the records it returned.
//!
//! Why: the only workload where the ring, batch amortisation, the
//! per-host `Mutex<Vmm>` and the shared counter traffic are *contended*
//! — where ROADMAP item 1's per-core sharding must show, and where
//! `ull_seq` predicts no change.

use std::time::Instant;

use horse_faas::{Cluster, FaasError, FunctionId, HostId, InvocationRecord, StartStrategy};
use horse_metrics::Histogram;

use super::{
    fold, pool_checks, pool_hits, ull_cluster, Check, Measured, Workload, FINGERPRINT_SEED,
    ROOT_SPAN,
};
use crate::affinity::Pinned;
use crate::report::Metric;
use crate::trace::Tracer;
use crate::window::Window;

use super::ull_seq::{HOSTS, PER_HOST};

/// Requests each driver enqueues per batched call. Matches the fleet's
/// warm inventory, so one batch touches every host.
pub const BATCH: usize = 32;
/// Warm-up invocations, served through the batched path by one thread
/// (so the warm-up's virtual results are deterministic).
const WARMUP_OPS: usize = 100_000;

/// The workload type.
pub struct UllBatch2t;

/// Fleet state.
pub struct State {
    /// The shared fleet (`&Cluster` is what the drivers share; every
    /// request-path method takes `&self`).
    pub cluster: Cluster,
    /// The registered function.
    pub f: FunctionId,
}

/// One driver's tallies.
struct Driver {
    window: Window,
    virt_init: Histogram,
    attempted: u64,
    succeeded: u64,
    mopups: u64,
    hard_errors: u64,
    spans: Vec<(u64, u64)>,
}

/// One batched submission plus its mop-ups: enqueues `enqueue` requests
/// and keeps draining until the call returns clean. Records another
/// driver enqueued may be served here — totals are conserved.
fn submit(
    cluster: &Cluster,
    f: FunctionId,
    enqueue: usize,
    got: &mut Vec<(HostId, InvocationRecord)>,
    d: &mut Driver,
    traced: bool,
) -> bool {
    let mut enqueue = enqueue;
    loop {
        let t0 = d.window.now_ns();
        got.clear();
        let result = cluster.invoke_batch(f, StartStrategy::Horse, enqueue, got);
        let t1 = d.window.now_ns();
        if !got.is_empty() {
            let n = got.len() as u64;
            d.window.record(t1, (t1 - t0) / n, n);
            for (_, record) in got.iter() {
                d.virt_init.record(record.init_ns);
            }
            d.succeeded += n;
        }
        if traced {
            d.spans.push((t0, t1));
        }
        match result {
            Ok(_) => return true,
            // Transient dry pool: the unserved tail went back into the
            // rings — mop up without enqueueing more.
            Err(FaasError::NoWarmSandbox { .. }) => {
                d.mopups += 1;
                enqueue = 0;
                std::thread::yield_now();
            }
            Err(_) => {
                d.hard_errors += 1;
                return false;
            }
        }
    }
}

impl Workload for UllBatch2t {
    const NAME: &'static str = "ull_batch_2t";
    const THREADS: usize = 2;
    type Input = ();
    type State = State;

    fn input(_seed: u64, _seconds: f64) {}

    fn setup(seed: u64, _input: &()) -> (State, u64) {
        let (cluster, f) = ull_cluster(seed, HOSTS, PER_HOST);
        let mut fingerprint = FINGERPRINT_SEED;
        let mut got = Vec::with_capacity(2 * BATCH);
        for _ in 0..WARMUP_OPS / BATCH {
            got.clear();
            cluster
                .invoke_batch(f, StartStrategy::Horse, BATCH, &mut got)
                .expect("warm-up batch on a provisioned fleet");
            for (host, record) in &got {
                fold(&mut fingerprint, host.0 as u64);
                fold(&mut fingerprint, record.init_ns);
                fold(&mut fingerprint, record.exec_ns);
            }
        }
        (State { cluster, f }, fingerprint)
    }

    fn run(state: &mut State, _input: &(), seconds: f64, tracer: Option<&mut Tracer>) -> Measured {
        let cluster = &state.cluster;
        let f = state.f;
        let pools = [(f, StartStrategy::Horse, HOSTS * PER_HOST)];
        let hits_before = pool_hits(cluster, &pools);
        let traced = tracer.is_some();
        let epoch = Instant::now();
        let mut drivers: Vec<Driver> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..Self::THREADS)
                .map(|i| {
                    scope.spawn(move || {
                        // One CPU per driver: left to the scheduler, both
                        // sometimes share a core for seconds on end.
                        let _pinned = Pinned::nth_allowed_cpu(i);
                        let mut d = Driver {
                            window: Window::new(epoch, seconds),
                            virt_init: Histogram::new(),
                            attempted: 0,
                            succeeded: 0,
                            mopups: 0,
                            hard_errors: 0,
                            spans: Vec::new(),
                        };
                        let mut got = Vec::with_capacity(4 * BATCH);
                        while d.window.open_at(d.window.now_ns()) {
                            d.attempted += BATCH as u64;
                            if !submit(cluster, f, BATCH, &mut got, &mut d, traced) {
                                break;
                            }
                        }
                        d
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread panicked"))
                .collect()
        });

        // Leftovers a driver's last error returned to the rings after
        // the other driver's last drain: serve them (outside the window)
        // so attempted == succeeded is checkable.
        let mut tail = drivers.pop().expect("two drivers");
        let mut got = Vec::with_capacity(4 * BATCH);
        submit(cluster, f, 0, &mut got, &mut tail, false);
        let mut first = drivers.pop().expect("two drivers");
        first.window.merge(&tail.window);
        first.virt_init.merge(&tail.virt_init);

        if let Some(tracer) = tracer {
            for (request, &(t0, t1)) in first.spans.iter().chain(&tail.spans).enumerate() {
                tracer.span(
                    "faas.cluster.invoke_batch",
                    t0,
                    t1,
                    Some(ROOT_SPAN),
                    request as u64,
                );
            }
        }

        let attempted = first.attempted + tail.attempted;
        let succeeded = first.succeeded + tail.succeeded;
        let hard_errors = first.hard_errors + tail.hard_errors;
        let mut checks = vec![
            Check::eq("successes == attempted - failed", succeeded, attempted),
            Check::eq("hard errors == 0", hard_errors, 0),
        ];
        pool_checks(cluster, &pools, hits_before, succeeded, &mut checks);
        Measured {
            window: first.window,
            attempted,
            succeeded,
            virt_init: first.virt_init,
            checks,
            extras: vec![Metric::new(
                "driver.batch_mopups",
                (first.mopups + tail.mopups) as f64,
                "count",
            )],
        }
    }
}
