//! `ull_seq` — closed loop, one driver, `Cluster::invoke(f, Horse)` one
//! at a time on 8 hosts × 4 provisioned 2-vCPU uLL `Cat3` sandboxes.
//!
//! Why: the paper's headline path with the whole per-request pipeline
//! (routing → registry → pool take → `Mutex<Vmm>` → resume ①–⑥ → exec
//! sampling → re-pause → pool put) and nothing else — no ring, no
//! batching, no reliability plane, recorder disabled. Optimisations of
//! those bypassed layers must leave this workload unmoved.

use std::time::Instant;

use horse_faas::{Cluster, FunctionId, StartStrategy};
use horse_metrics::Histogram;

use super::{
    fold, pool_checks, pool_hits, ull_cluster, Check, Measured, Workload, FINGERPRINT_SEED,
    ROOT_SPAN,
};
use crate::trace::Tracer;
use crate::window::Window;

/// Hosts in the fleet.
pub const HOSTS: usize = 8;
/// Provisioned sandboxes per host.
pub const PER_HOST: usize = 4;
/// Warm-up invocations (fixed count, so `setup_s` times the same work
/// on every run).
const WARMUP_OPS: u64 = 100_000;

/// The workload type.
pub struct UllSeq;

/// Fleet state.
pub struct State {
    /// The fleet.
    pub cluster: Cluster,
    /// The registered function.
    pub f: FunctionId,
}

impl Workload for UllSeq {
    const NAME: &'static str = "ull_seq";
    const THREADS: usize = 1;
    type Input = ();
    type State = State;

    fn input(_seed: u64, _seconds: f64) {}

    fn setup(seed: u64, _input: &()) -> (State, u64) {
        let (cluster, f) = ull_cluster(seed, HOSTS, PER_HOST);
        let mut fingerprint = FINGERPRINT_SEED;
        for _ in 0..WARMUP_OPS {
            let (host, record) = cluster
                .invoke(f, StartStrategy::Horse)
                .expect("warm-up invoke on a provisioned fleet");
            fold(&mut fingerprint, host.0 as u64);
            fold(&mut fingerprint, record.init_ns);
            fold(&mut fingerprint, record.exec_ns);
        }
        (State { cluster, f }, fingerprint)
    }

    fn run(
        state: &mut State,
        _input: &(),
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Measured {
        let State { cluster, f } = state;
        let pools = [(*f, StartStrategy::Horse, HOSTS * PER_HOST)];
        let hits_before = pool_hits(cluster, &pools);
        let mut window = Window::new(Instant::now(), seconds);
        let mut virt_init = Histogram::new();
        let (mut attempted, mut succeeded, mut failed) = (0u64, 0u64, 0u64);
        loop {
            let t0 = window.now_ns();
            if !window.open_at(t0) {
                break;
            }
            attempted += 1;
            let result = cluster.invoke(*f, StartStrategy::Horse);
            let t1 = window.now_ns();
            match result {
                Ok((_, record)) => {
                    succeeded += 1;
                    window.record(t1, t1 - t0, 1);
                    virt_init.record(record.init_ns);
                }
                Err(_) => failed += 1,
            }
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.span("faas.cluster.invoke", t0, t1, Some(ROOT_SPAN), attempted);
            }
        }
        let mut checks = vec![Check::eq(
            "successes == attempted - failed",
            succeeded,
            attempted - failed,
        )];
        pool_checks(cluster, &pools, hits_before, succeeded, &mut checks);
        Measured {
            window,
            attempted,
            succeeded,
            virt_init,
            checks,
            extras: Vec::new(),
        }
    }
}
