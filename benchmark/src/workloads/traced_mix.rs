//! `traced_mix` — closed loop, one driver, with a telemetry
//! `Recorder` (1 shard × 65 536 slots) installed on a 3-host fleet. The
//! driver drains the recorder every 1024 ops; drain time counts toward
//! throughput, not toward per-op latency. The op mix cycles `Horse`
//! 2-vCPU ×3, `Warm` 1-vCPU ×1, `Horse` 8-vCPU ×1.
//!
//! Why: the telemetry layer does real work only here (16–18 events per
//! op), so ROADMAP item 5 is measured here while `ull_seq` must not
//! move; it also keeps the `Warm`/vanilla resume and a wider uLL sandbox
//! in the gated set.

use std::time::Instant;

use horse_faas::{Cluster, DispatchPolicy, FunctionId, PlatformConfig, StartStrategy};
use horse_metrics::Histogram;
use horse_telemetry::{Recorder, TelemetryConfig};
use horse_workloads::Category;

use super::{
    fold, pool_checks, pool_hits, ull_config, vanilla_config, Check, Measured, Workload,
    FINGERPRINT_SEED, ROOT_SPAN,
};
use crate::report::Metric;
use crate::trace::Tracer;
use crate::window::Window;

/// Hosts in the fleet.
pub const HOSTS: usize = 3;
/// Provisioned sandboxes per host and function.
pub const PER_HOST: usize = 2;
/// Ops between recorder drains: 1024 × ≤ 18 events stays well inside
/// the 65 536-slot shard, so nothing is ever overwritten.
pub const DRAIN_EVERY: u64 = 1024;
/// Warm-up ops.
const WARMUP_OPS: u64 = 30_720;

/// The op mix: indices into [`State::functions`].
const MIX: [usize; 5] = [0, 0, 0, 1, 2];

/// The workload type.
pub struct TracedMix;

/// Fleet state.
pub struct State {
    /// The fleet.
    pub cluster: Cluster,
    /// The installed recorder (disabled in the no-recorder variant the
    /// layer probes use for `telemetry.recorder_overhead_pct`).
    pub recorder: Recorder,
    /// `(function, strategy)` of the mix: Horse 2-vCPU, Warm 1-vCPU,
    /// Horse 8-vCPU.
    pub functions: [(FunctionId, StartStrategy); 3],
}

impl State {
    fn pools(&self) -> [(FunctionId, StartStrategy, usize); 3] {
        self.functions.map(|(f, s)| (f, s, HOSTS * PER_HOST))
    }
}

/// Builds the fleet with or without the recorder and warms it up.
pub fn setup_with(seed: u64, with_recorder: bool) -> (State, u64) {
    let mut cluster = Cluster::with_config(
        HOSTS,
        DispatchPolicy::RoundRobin,
        seed,
        PlatformConfig::default(),
    );
    let recorder = if with_recorder {
        Recorder::new(TelemetryConfig {
            shards: 1,
            capacity_per_shard: 1 << 16,
        })
    } else {
        Recorder::disabled()
    };
    cluster.set_recorder(recorder.clone());
    let functions = [
        (
            cluster.register("filter", Category::Cat3, ull_config(2)),
            StartStrategy::Horse,
        ),
        (
            cluster.register("nat", Category::Cat2, vanilla_config(1)),
            StartStrategy::Warm,
        ),
        (
            cluster.register("filter-wide", Category::Cat3, ull_config(8)),
            StartStrategy::Horse,
        ),
    ];
    for (f, strategy) in functions {
        cluster
            .provision_all(f, PER_HOST, strategy)
            .expect("provisioning a fresh fleet succeeds");
    }
    recorder.drain(); // provisioning events are not part of any op
    let state = State {
        cluster,
        recorder,
        functions,
    };
    let mut fingerprint = FINGERPRINT_SEED;
    for op in 0..WARMUP_OPS {
        let (f, strategy) = state.functions[MIX[(op % MIX.len() as u64) as usize]];
        let (host, record) = state
            .cluster
            .invoke(f, strategy)
            .expect("warm-up invoke on a provisioned fleet");
        fold(&mut fingerprint, host.0 as u64);
        fold(&mut fingerprint, record.init_ns);
        fold(&mut fingerprint, record.exec_ns);
        if (op + 1) % DRAIN_EVERY == 0 {
            state.recorder.drain();
        }
    }
    state.recorder.drain();
    (state, fingerprint)
}

/// Telemetry tallies of one window.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryStats {
    /// Events drained.
    pub events: u64,
    /// Events lost to ring overwrite.
    pub dropped: u64,
    /// Wall time spent inside `Recorder::drain`, ns.
    pub drain_ns: u64,
}

/// Drives the op mix for `seconds`.
pub fn drive(
    state: &State,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> (Measured, TelemetryStats) {
    let State {
        cluster,
        recorder,
        functions,
    } = state;
    let pools = state.pools();
    let hits_before = pool_hits(cluster, &pools);
    let dropped_before = recorder.dropped();
    let mut telemetry = TelemetryStats::default();
    let mut window = Window::new(Instant::now(), seconds);
    let mut virt_init = Histogram::new();
    let (mut attempted, mut succeeded, mut failed) = (0u64, 0u64, 0u64);
    loop {
        let t0 = window.now_ns();
        if !window.open_at(t0) {
            break;
        }
        let (f, strategy) = functions[MIX[(attempted % MIX.len() as u64) as usize]];
        attempted += 1;
        let result = cluster.invoke(f, strategy);
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
        if attempted % DRAIN_EVERY == 0 {
            let snapshot = recorder.drain();
            telemetry.events += snapshot.events.len() as u64;
            let t2 = window.now_ns();
            telemetry.drain_ns += t2 - t1;
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.span("telemetry.drain", t1, t2, Some(ROOT_SPAN), attempted);
            }
        }
    }
    telemetry.events += recorder.drain().events.len() as u64;
    telemetry.dropped = recorder.dropped() - dropped_before;

    let mut checks = vec![
        Check::eq(
            "successes == attempted - failed",
            succeeded,
            attempted - failed,
        ),
        Check::eq("Recorder::dropped() == 0", telemetry.dropped, 0),
    ];
    pool_checks(cluster, &pools, hits_before, succeeded, &mut checks);
    let measured = Measured {
        window,
        attempted,
        succeeded,
        virt_init,
        checks,
        extras: vec![Metric::new(
            "telemetry.events_per_op",
            telemetry.events as f64 / succeeded.max(1) as f64,
            "count",
        )],
    };
    (measured, telemetry)
}

impl Workload for TracedMix {
    const NAME: &'static str = "traced_mix";
    const THREADS: usize = 1;
    type Input = ();
    type State = State;

    fn input(_seed: u64, _seconds: f64) {}

    fn setup(seed: u64, _input: &()) -> (State, u64) {
        setup_with(seed, true)
    }

    fn run(state: &mut State, _input: &(), seconds: f64, tracer: Option<&mut Tracer>) -> Measured {
        drive(state, seconds, tracer).0
    }
}
