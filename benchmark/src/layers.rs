//! The per-layer probes of the traced run.
//!
//! Layers are the repo's modules. Each is timed **from outside**, around
//! its public functions, on state built exactly as the workloads build
//! it. Every timed call is an interval between two clock stamps; the
//! reported number is the median interval minus the calibrated cost of
//! one clock read (`driver.clock_read_ns`), so a 30 ns pool take is not
//! reported as 50 ns. Spans of the by-hand replay of one warm invoke go
//! to the tracer and end up in the Chrome trace.
//!
//! Which end-to-end metric each layer metric should move is tabulated in
//! `benchmark/README.md`.

use std::hint::black_box;
use std::time::Instant;

use horse_core::{Arena, MergePlan, PlanBuffers, SortedList, SpliceMode};
use horse_faas::{
    FaasPlatform, FunctionRegistry, KeepAlive, PlatformConfig, Request, ShardedWarmPool,
    StartStrategy, SubmissionRing,
};
use horse_metrics::Histogram;
use horse_reliability::{AdmissionConfig, AdmissionController, ReliabilityConfig, RequestClass};
use horse_sched::{HostScheduler, SandboxId, SchedConfig, Vcpu, VcpuId};
use horse_sim::SimTime;
use horse_telemetry::{
    contention, profiling, ContentionSite, EventKind, Recorder, TelemetryConfig,
};
use horse_vmm::{CostModel, PausePolicy, ResumeMode, SplicePool, Vmm};
use horse_workloads::Category;

use crate::affinity::Pinned;
use crate::report::Metric;
use crate::schedule::Schedule;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::reliab_open::{self, OpenLoopStats, ReliabOpen};
use crate::workloads::ull_batch_2t::{UllBatch2t, BATCH};
use crate::workloads::ull_seq::{self, UllSeq};
use crate::workloads::wide_resume::interleaved_vmm;
use crate::workloads::{traced_mix, ull_cluster, ull_config, Workload};

/// vCPU points of the `vmm` sweeps: the paper's range (1–36) and 4× past
/// it, where linear growth is unmistakable.
const SWEEP_VCPUS: [u32; 4] = [1, 8, 36, 144];
/// Width the `core` / `sched` merge probes run at.
const MERGE_WIDTH: usize = 36;
/// Latency limit of the open-loop rate steps.
const SLO_P99_NS: f64 = 500_000.0;
/// Rate steps of the open loop, as multiples of the nominal 250 k/s.
const RATE_STEPS: [(f64, &str); 3] = [(0.5, "r125k"), (1.0, "r250k"), (1.5, "r375k")];

/// The pause policy matching a resume mode: what a pause precomputes is
/// exactly what the mode consumes.
fn policy_for(mode: ResumeMode) -> PausePolicy {
    PausePolicy {
        precompute_merge: mode.uses_ppsm(),
        precompute_coalesce: mode.uses_coalescing(),
    }
}

/// Median of integer-ns samples.
fn median_ns(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&s| s as f64).collect::<Vec<_>>())
}

/// Collects the per-layer metrics.
pub struct Probes<'a> {
    seed: u64,
    /// Measured-window seconds of the run; probe budgets scale with it.
    seconds: f64,
    epoch: Instant,
    clock_ns: f64,
    tracer: &'a mut Tracer,
    metrics: Vec<Metric>,
}

impl<'a> Probes<'a> {
    /// Prepares the probes; `epoch` is the tracer's time origin.
    pub fn new(seed: u64, seconds: f64, epoch: Instant, tracer: &'a mut Tracer) -> Self {
        Self {
            seed,
            seconds,
            epoch,
            clock_ns: 0.0,
            tracer,
            metrics: Vec::new(),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Median interval net of one clock read.
    fn net(&self, samples: &[u64]) -> f64 {
        (median_ns(samples) - self.clock_ns).max(0.0)
    }

    /// Iterations for a probe whose default count is `base` at a 10 s
    /// window.
    fn reps(&self, base: usize) -> usize {
        ((base as f64 * self.seconds / 10.0) as usize)
            .max(base / 20)
            .max(8)
    }

    /// Runs every probe and returns the metrics.
    pub fn run(mut self) -> Vec<Metric> {
        self.driver_clock();
        self.metrics_layer();
        self.core_layer();
        self.sched_layer();
        self.vmm_layer();
        let ull_seq_p50 = self.ull_seq_reference();
        self.invoke_layers(ull_seq_p50);
        self.telemetry_layer();
        self.open_loop_steps();
        self.metrics
    }

    // ---- driver ---------------------------------------------------------

    /// `driver.clock_read_ns` and `driver.stalls_over_200us`.
    fn driver_clock(&mut self) {
        let n = self.reps(200_000);
        let mut gaps = Vec::with_capacity(n);
        let mut prev = self.now();
        for _ in 0..n {
            let t = self.now();
            gaps.push(t - prev);
            prev = t;
        }
        self.clock_ns = median_ns(&gaps);
        self.put("driver.clock_read_ns", self.clock_ns, "ns");

        // Host noise: a thread that does nothing but read the clock
        // still sees gaps when the host deschedules it.
        let span_ns = (self.seconds * 0.05 * 1e9) as u64;
        let start = self.now();
        let (mut prev, mut stalls) = (start, 0u64);
        loop {
            let t = self.now();
            if t - prev > 200_000 {
                stalls += 1;
            }
            prev = t;
            if t - start >= span_ns {
                break;
            }
        }
        self.put(
            "driver.stalls_over_200us",
            stalls as f64 / (span_ns as f64 / 1e9),
            "1/s",
        );
    }

    // ---- metrics --------------------------------------------------------

    /// `metrics.histogram_record_ns`: the harness's own per-sample cost.
    fn metrics_layer(&mut self) {
        let n = self.reps(1_000_000);
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ self.seed;
        let values: Vec<u64> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                200 + (x % 2_000_000)
            })
            .collect();
        let mut h = Histogram::new();
        let t0 = Instant::now();
        for &v in &values {
            h.record(v);
        }
        let per_op = t0.elapsed().as_nanos() as f64 / n as f64;
        assert_eq!(black_box(&h).len(), n as u64);
        self.put("metrics.histogram_record_ns", per_op, "ns");
    }

    // ---- core -----------------------------------------------------------

    /// 𝒫²𝒮ℳ precompute / merge at 36 interleaved elements, and the
    /// coalesced load update.
    fn core_layer(&mut self) {
        let reps = self.reps(20_000);
        let mut arena: Arena<u64> = Arena::with_capacity(2 * MERGE_WIDTH);
        let mut b = SortedList::new();
        for i in 0..MERGE_WIDTH as i64 {
            b.insert_sorted(&mut arena, 2 * i + 2, i as u64);
        }
        let a_nodes: Vec<_> = (0..MERGE_WIDTH as i64)
            .map(|i| arena.alloc(2 * i + 1, i as u64))
            .collect();
        let mut buffers = PlanBuffers::with_capacity(MERGE_WIDTH, MERGE_WIDTH);
        let (mut pre, mut merge) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        let mut splices = 0usize;
        for _ in 0..reps {
            let mut a = SortedList::new();
            for &node in &a_nodes {
                a.link_sorted(&arena, node);
            }
            let t0 = self.now();
            let plan = MergePlan::precompute_in(&arena, &b, a, buffers);
            let t1 = self.now();
            let (report, recycled) = plan
                .merge_recycling(&arena, &mut b, SpliceMode::Sequential)
                .expect("fresh plan is not stale");
            let t2 = self.now();
            pre.push(t1 - t0);
            merge.push(t2 - t1);
            splices = report.splices;
            buffers = recycled;
            for &node in &a_nodes {
                assert!(b.unlink(&arena, node), "merged node is on the queue");
            }
        }
        let pre = self.net(&pre);
        let merge = self.net(&merge);
        self.put("core.p2sm.precompute_ns.v36", pre, "ns");
        self.put("core.p2sm.merge_ns.v36", merge, "ns");
        self.put("core.p2sm.splices.v36", splices as f64, "count");

        let coalesced = horse_sched::LoadTracker::pelt_default().coalesce(MERGE_WIDTH as u32);
        let n = self.reps(2_000_000);
        let mut x = 1.0f64;
        let t0 = Instant::now();
        for _ in 0..n {
            x = coalesced.apply(black_box(x));
        }
        let per_op = t0.elapsed().as_nanos() as f64 / n as f64;
        black_box(x);
        self.put("core.coalesce.apply_ns", per_op, "ns");
    }

    // ---- sched ----------------------------------------------------------

    fn sched_layer(&mut self) {
        let reps = self.reps(20_000);
        let mut sched = HostScheduler::new(SchedConfig::default());
        let rq = sched.ull_queues()[0];
        let owner = SandboxId::new(1);
        for i in 0..MERGE_WIDTH as i64 {
            sched.enqueue_vcpu(rq, 2 * i + 2, Vcpu::new(VcpuId::new(i as u64), owner));
        }

        // Vanilla sorted insert into the 36-deep queue: timed in groups
        // of 8 inserts at spread keys (a single insert is shorter than
        // two clock reads), then removed again untimed.
        const GROUP: usize = 8;
        let mut enqueue = Vec::with_capacity(reps);
        let mut nodes = Vec::with_capacity(GROUP);
        for _ in 0..reps {
            let t0 = self.now();
            for k in 0..GROUP as i64 {
                let vcpu = Vcpu::new(VcpuId::new(100 + k as u64), owner);
                nodes.push(sched.enqueue_vcpu(rq, 9 * k + 5, vcpu));
            }
            let t1 = self.now();
            enqueue.push(t1 - t0);
            for node in nodes.drain(..) {
                sched.dequeue_vcpu(rq, node);
            }
        }
        let per_insert = self.net(&enqueue) / GROUP as f64;
        self.put("sched.enqueue_vcpu_ns", per_insert, "ns");

        // 𝒫²𝒮ℳ through the scheduler: precompute against the uLL queue,
        // splice, then pull the merged vCPUs back out untimed.
        let merged: Vec<(i64, Vcpu)> = (0..MERGE_WIDTH as i64)
            .map(|i| (2 * i + 1, Vcpu::new(VcpuId::new(200 + i as u64), owner)))
            .collect();
        let mut buffers = PlanBuffers::with_capacity(MERGE_WIDTH, MERGE_WIDTH);
        let (mut pre, mut merge) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        for _ in 0..reps {
            let mut a = SortedList::new();
            let a_nodes: Vec<_> = merged
                .iter()
                .map(|&(credit, vcpu)| a.insert_sorted(sched.arena_mut(), credit, vcpu))
                .collect();
            let t0 = self.now();
            let plan = sched.ull_precompute_in(rq, a, buffers);
            let t1 = self.now();
            let (_, recycled) = sched
                .ull_merge_recycling(rq, plan, SpliceMode::Sequential)
                .expect("fresh plan is not stale");
            let t2 = self.now();
            pre.push(t1 - t0);
            merge.push(t2 - t1);
            buffers = recycled;
            for node in a_nodes {
                sched.dequeue_vcpu(rq, node);
            }
        }
        let pre = self.net(&pre);
        let merge = self.net(&merge);
        self.put("sched.ull_precompute_ns.v36", pre, "ns");
        self.put("sched.ull_merge_ns.v36", merge, "ns");

        let coalesced = sched.tracker().coalesce(MERGE_WIDTH as u32);
        let (mut per_vcpu, mut folded) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        for _ in 0..reps {
            let t0 = self.now();
            black_box(sched.load_update_per_vcpu(rq, MERGE_WIDTH as u32));
            let t1 = self.now();
            black_box(sched.load_update_coalesced(rq, coalesced));
            let t2 = self.now();
            per_vcpu.push(t1 - t0);
            folded.push(t2 - t1);
        }
        let per_vcpu = self.net(&per_vcpu);
        let folded = self.net(&folded);
        self.put("sched.load_update_ns.per_vcpu", per_vcpu, "ns");
        self.put("sched.load_update_ns.coalesced", folded, "ns");
    }

    // ---- vmm ------------------------------------------------------------

    /// One sweep point: median wall pause and resume, and the (exact)
    /// virtual resume total, over `reps` warm cycles.
    fn vmm_point(&self, vcpus: u32, mode: ResumeMode, pool: SplicePool, reps: usize) -> VmmPoint {
        let mut state = interleaved_vmm(vcpus, pool);
        let policy = policy_for(mode);
        let (mut pause, mut resume) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        let mut virt_ns = 0;
        for rep in 0..=reps {
            let t0 = self.now();
            state
                .vmm
                .pause(state.measured, policy)
                .expect("running sandbox pauses");
            let t1 = self.now();
            let outcome = state
                .vmm
                .resume(state.measured, mode)
                .expect("paused sandbox resumes");
            let t2 = self.now();
            if rep > 0 {
                pause.push(t1 - t0);
                resume.push(t2 - t1);
            }
            virt_ns = outcome.breakdown.total_ns();
        }
        VmmPoint {
            pause_ns: self.net(&pause),
            resume_ns: self.net(&resume),
            virt_ns,
            pool: state.vmm.splice_pool_stats(),
        }
    }

    fn vmm_layer(&mut self) {
        // Pinned like `wide_resume`, whose numbers the par2 points
        // explain: where unpinned splice threads land is a coin flip.
        let _pinned = Pinned::nth_allowed_cpu(0);
        let mut first = [0.0f64; 3];
        for vcpus in SWEEP_VCPUS {
            // Fewer cycles at the wide, slow points; the spawn-per-merge
            // pool costs ~50 µs per resume at every width.
            let reps = self.reps(if vcpus >= 100 { 300 } else { 2_000 });
            let par_reps = self.reps(400);
            let inline = self.vmm_point(vcpus, ResumeMode::Horse, SplicePool::inline(), reps);
            let par2 = self.vmm_point(vcpus, ResumeMode::Horse, SplicePool::parallel(2), par_reps);
            let vanilla = self.vmm_point(vcpus, ResumeMode::Vanilla, SplicePool::inline(), reps);
            for (k, (label, point)) in [("inline", &inline), ("par2", &par2), ("vanilla", &vanilla)]
                .into_iter()
                .enumerate()
            {
                self.put(
                    format!("vmm.resume_ns.{label}.v{vcpus}"),
                    point.resume_ns,
                    "ns",
                );
                if vcpus == SWEEP_VCPUS[0] {
                    first[k] = point.resume_ns;
                }
                if vcpus == SWEEP_VCPUS[SWEEP_VCPUS.len() - 1] {
                    self.put(
                        format!("vmm.growth_1_144.{label}"),
                        point.resume_ns / first[k].max(1.0),
                        "ratio",
                    );
                }
            }
            self.put(
                format!("vmm.pause_ns.horse.v{vcpus}"),
                inline.pause_ns,
                "ns",
            );
            self.put(
                format!("vmm.pause_ns.vanilla.v{vcpus}"),
                vanilla.pause_ns,
                "ns",
            );
            self.put(
                format!("vmm.virt_resume_ns.horse.v{vcpus}"),
                inline.virt_ns as f64,
                "virt_ns",
            );
            self.put(
                format!("vmm.virt_resume_ns.vanilla.v{vcpus}"),
                vanilla.virt_ns as f64,
                "virt_ns",
            );
            assert_eq!(
                inline.virt_ns, par2.virt_ns,
                "real splice threads must leave the virtual axis bit-identical"
            );
            if vcpus == 36 {
                // The 36-vCPU par2 point is `wide_resume`'s exact shape.
                self.put(
                    "vmm.splice_pool.parallel_merges",
                    par2.pool.parallel_merges as f64,
                    "count",
                );
                self.put(
                    "vmm.splice_pool.dispatched_workers",
                    par2.pool.dispatched_workers as f64,
                    "count",
                );
                self.put(
                    "vmm.splice_pool.wall_overruns",
                    par2.pool.wall_overruns as f64,
                    "count",
                );
            }
        }
        // Paper: 7.16× at 36 vCPUs — on the paper's shape, a lone sandbox
        // resuming into an empty uLL queue (one head splice), not the
        // interleaved worst case the sweep above measures.
        let lone = |mode: ResumeMode| {
            let mut vmm = Vmm::new(SchedConfig::default(), CostModel::calibrated());
            let id = vmm.create(ull_config(36));
            vmm.start(id).expect("fresh sandbox starts");
            vmm.pause(id, policy_for(mode))
                .expect("running sandbox pauses");
            let outcome = vmm.resume(id, mode).expect("paused sandbox resumes");
            outcome.breakdown.total_ns() as f64
        };
        self.put(
            "vmm.virt_speedup.v36",
            lone(ResumeMode::Vanilla) / lone(ResumeMode::Horse).max(1.0),
            "ratio",
        );
    }

    // ---- faas.pool / faas.ring / faas.platform / faas.cluster / reliability

    /// A short untraced `ull_seq` pass in this process: the reference the
    /// layer budget has to close against.
    fn ull_seq_reference(&mut self) -> f64 {
        let seconds = (self.seconds * 0.1).max(0.2);
        let (mut state, _) = UllSeq::setup(self.seed, &());
        let measured = UllSeq::run(&mut state, &(), seconds, None);
        measured.window.summary().wall_p50_ns
    }

    fn invoke_layers(&mut self, ull_seq_p50_ns: f64) {
        let n = self.reps(200_000);
        let horse = StartStrategy::Horse;

        // By-hand replay of one warm invoke on standalone parts.
        let mut registry = FunctionRegistry::new();
        let function = registry.register("filter", Category::Cat3, ull_config(2));
        let request = Request {
            function,
            strategy: horse,
            class: RequestClass::Ull,
            deadline_ns: None,
        };
        let ring = SubmissionRing::with_capacity(64);
        let pool = ShardedWarmPool::new(KeepAlive::Provisioned);
        let mut vmm = Vmm::new(SchedConfig::default(), CostModel::calibrated());
        for _ in 0..ull_seq::PER_HOST {
            let id = vmm.create(ull_config(2));
            vmm.start(id).expect("fresh sandbox starts");
            vmm.pause(id, PausePolicy::horse())
                .expect("running sandbox pauses");
            pool.put(id, SimTime::ZERO);
        }
        const STEPS: [&str; 6] = [
            "faas.ring.push",
            "faas.ring.pop",
            "faas.pool.take",
            "vmm.resume",
            "vmm.pause",
            "faas.pool.put",
        ];
        let mut steps: [Vec<u64>; 6] = std::array::from_fn(|_| Vec::with_capacity(n));
        for i in 0..n {
            let s0 = self.now();
            ring.push(request).expect("ring has room");
            let s1 = self.now();
            black_box(ring.pop().expect("pushed request pops"));
            let s2 = self.now();
            let id = pool.take(SimTime::ZERO).expect("provisioned pool hits");
            let s3 = self.now();
            vmm.resume(id, ResumeMode::Horse)
                .expect("paused sandbox resumes");
            let s4 = self.now();
            vmm.pause(id, PausePolicy::horse())
                .expect("running sandbox pauses");
            let s5 = self.now();
            pool.put(id, SimTime::ZERO);
            let s6 = self.now();
            let stamps = [s0, s1, s2, s3, s4, s5, s6];
            for (k, name) in STEPS.iter().enumerate() {
                steps[k].push(stamps[k + 1] - stamps[k]);
                self.tracer.span(
                    name,
                    stamps[k],
                    stamps[k + 1],
                    Some("driver.replay"),
                    i as u64,
                );
            }
            self.tracer.span("driver.replay", s0, s6, None, i as u64);
        }
        let [push, pop, take, resume, pause, put] = steps.map(|s| self.net(&s));
        let pool_stats = pool.stats();
        self.put("faas.ring.push_ns", push, "ns");
        self.put("faas.ring.pop_ns", pop, "ns");
        self.put("faas.pool.take_ns", take, "ns");
        self.put("faas.pool.put_ns", put, "ns");
        self.put(
            "faas.pool.hit_ratio",
            pool_stats.hits as f64 / (pool_stats.hits + pool_stats.misses).max(1) as f64,
            "ratio",
        );
        self.put("faas.pool.misses", pool_stats.misses as f64, "count");

        // The same invoke through `FaasPlatform` …
        let mut platform = FaasPlatform::new(PlatformConfig {
            seed: self.seed,
            ..PlatformConfig::default()
        });
        let f = platform.register("filter", Category::Cat3, ull_config(2));
        platform
            .provision(f, ull_seq::PER_HOST, horse)
            .expect("provisioning a fresh host succeeds");
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = self.now();
            black_box(platform.invoke(f, horse).expect("warm invoke"));
            let t1 = self.now();
            samples.push(t1 - t0);
            self.tracer
                .span("faas.platform.invoke", t0, t1, None, i as u64);
        }
        let platform_invoke = self.net(&samples);
        let mut records = Vec::with_capacity(BATCH);
        samples.clear();
        for _ in 0..n / BATCH {
            records.clear();
            let t0 = self.now();
            platform
                .invoke_batch(f, horse, BATCH, &mut records)
                .expect("warm batch");
            samples.push(self.now() - t0);
        }
        let platform_batch = self.net(&samples) / BATCH as f64;
        self.put("faas.platform.invoke_ns", platform_invoke, "ns");
        self.put("faas.platform.invoke_batch_ns_per_op", platform_batch, "ns");
        let platform_self = platform_invoke - (take + resume + pause + put);
        self.put("faas.platform.self_ns", platform_self, "ns");

        // … through `Cluster` …
        let (mut cluster, f) = ull_cluster(self.seed, ull_seq::HOSTS, ull_seq::PER_HOST);
        samples.clear();
        for i in 0..n {
            let t0 = self.now();
            black_box(cluster.invoke(f, horse).expect("warm invoke"));
            let t1 = self.now();
            samples.push(t1 - t0);
            self.tracer
                .span("faas.cluster.invoke", t0, t1, None, i as u64);
        }
        let cluster_invoke = self.net(&samples);
        let mut got = Vec::with_capacity(2 * BATCH);
        samples.clear();
        for _ in 0..n / BATCH {
            got.clear();
            let t0 = self.now();
            cluster
                .invoke_batch(f, horse, BATCH, &mut got)
                .expect("warm batch");
            samples.push(self.now() - t0);
        }
        let cluster_batch = self.net(&samples) / BATCH as f64;
        let cluster_self = cluster_invoke - platform_invoke;
        self.put("faas.cluster.invoke_ns", cluster_invoke, "ns");
        self.put("faas.cluster.invoke_batch_ns_per_op", cluster_batch, "ns");

        // … and through the reliability plane.
        cluster.set_reliability(ReliabilityConfig::with_seed(self.seed));
        let submit_request = Request {
            function: f,
            strategy: horse,
            class: RequestClass::Ull,
            deadline_ns: Some(100_000),
        };
        samples.clear();
        for i in 0..n {
            let t0 = self.now();
            black_box(cluster.submit(submit_request));
            let t1 = self.now();
            samples.push(t1 - t0);
            self.tracer
                .span("faas.cluster.submit", t0, t1, None, i as u64);
        }
        let submit = self.net(&samples);
        self.put("faas.cluster.submit_ns", submit, "ns");
        self.put("faas.cluster.self_ns", cluster_self, "ns");
        self.put("reliability.self_ns", submit - cluster_invoke, "ns");

        let admission = AdmissionController::new(AdmissionConfig::default());
        samples.clear();
        for _ in 0..n {
            let t0 = self.now();
            drop(black_box(admission.admit(
                RequestClass::Ull,
                Some(100_000),
                0,
            )));
            samples.push(self.now() - t0);
        }
        let admit = self.net(&samples);
        self.put("reliability.admit_ns", admit, "ns");

        // Closure: the layers must add up to what `ull_seq` measures
        // (whose per-op figure includes the one clock read the probes
        // net out).
        let budget = take + resume + pause + put + platform_self + cluster_self;
        self.put(
            "driver.closure_residual_pct",
            100.0 * (budget + self.clock_ns - ull_seq_p50_ns).abs() / ull_seq_p50_ns.max(1.0),
            "%",
        );
    }

    // ---- telemetry ------------------------------------------------------

    fn telemetry_layer(&mut self) {
        // Raw record and drain cost on a recorder sized like
        // `traced_mix`'s.
        let recorder = Recorder::new(TelemetryConfig {
            shards: 1,
            capacity_per_shard: 1 << 16,
        });
        const BURST: u64 = 1 << 15;
        let rounds = self.reps(40);
        let (mut record_ns, mut drain_ns, mut events) = (0u64, 0u64, 0u64);
        for _ in 0..rounds {
            let t0 = self.now();
            for i in 0..BURST {
                recorder.instant(EventKind::LoadUpdate, 0, i);
            }
            let t1 = self.now();
            let snapshot = recorder.drain();
            let t2 = self.now();
            events += snapshot.events.len() as u64;
            record_ns += t1 - t0;
            drain_ns += t2 - t1;
        }
        assert_eq!(events, rounds as u64 * BURST, "no event may be dropped");
        self.put(
            "telemetry.record_ns_per_event",
            record_ns as f64 / events as f64,
            "ns",
        );

        // `traced_mix` with and without its recorder.
        let seconds = (self.seconds * 0.07).max(0.2);
        let (with, _) = traced_mix::setup_with(self.seed, true);
        let (measured, telemetry) = traced_mix::drive(&with, seconds, None);
        let with_tput = measured.window.summary().throughput_ops_s;
        let (without, _) = traced_mix::setup_with(self.seed, false);
        let without_tput = traced_mix::drive(&without, seconds, None)
            .0
            .window
            .summary()
            .throughput_ops_s;
        self.put(
            "telemetry.events_per_op",
            telemetry.events as f64 / measured.succeeded.max(1) as f64,
            "count",
        );
        self.put(
            "telemetry.dropped_events",
            telemetry.dropped as f64,
            "count",
        );
        self.put(
            "telemetry.drain_ns_per_event",
            (drain_ns + telemetry.drain_ns) as f64 / (events + telemetry.events).max(1) as f64,
            "ns",
        );
        self.put(
            "telemetry.recorder_overhead_pct",
            100.0 * (without_tput - with_tput) / without_tput.max(1.0),
            "%",
        );

        // The profiling plane: `Mutex<Vmm>` wait under two drivers, and
        // allocations per warm invoke (must stay 0 on `ull_seq`).
        let (mut batch_state, _) = UllBatch2t::setup(self.seed, &());
        let (seq_state, _) = UllSeq::setup(self.seed, &());
        profiling::reset();
        profiling::set_enabled(true);
        UllBatch2t::run(&mut batch_state, &(), seconds, None);
        let vmm_mutex = contention::snapshot()
            .into_iter()
            .find(|s| s.site == ContentionSite::VmmMutex)
            .expect("VmmMutex is a known site");
        let ops = self.reps(100_000) as u64;
        let allocs_before = horse_telemetry::alloc::total_allocs();
        for _ in 0..ops {
            black_box(
                seq_state
                    .cluster
                    .invoke(seq_state.f, StartStrategy::Horse)
                    .expect("warm invoke"),
            );
        }
        let allocs = horse_telemetry::alloc::total_allocs() - allocs_before;
        profiling::set_enabled(false);
        self.put(
            "telemetry.vmm_mutex_wait_ns",
            vmm_mutex.wait_ns_total as f64 / vmm_mutex.acquisitions.max(1) as f64,
            "ns",
        );
        self.put(
            "telemetry.allocs_per_op",
            allocs as f64 / ops as f64,
            "count",
        );
    }

    // ---- open-loop rate steps -------------------------------------------

    fn open_loop_steps(&mut self) {
        let seconds = (self.seconds * 0.1).max(0.3);
        let mut best_rate = 0.0f64;
        let mut nominal: Option<OpenLoopStats> = None;
        for (scale, label) in RATE_STEPS {
            let schedule = Schedule::generate(self.seed, (seconds * 1e9) as u64, scale);
            let (state, _) = ReliabOpen::setup(self.seed, &schedule);
            let (measured, stats) = reliab_open::drive(&state, &schedule, seconds, None);
            let p99 = measured.window.summary().wall_p99_ns;
            self.put(format!("driver.open_p99_ns.{label}"), p99, "ns");
            if p99 <= SLO_P99_NS
                && !stats.backlog_growing()
                && measured.succeeded == measured.attempted
            {
                best_rate = best_rate.max(scale * crate::schedule::NOMINAL_RATE_PER_S);
            }
            if scale == 1.0 {
                nominal = Some(stats);
            }
        }
        self.put("driver.max_rate_in_slo_ops_s", best_rate, "ops/s");
        let stats = nominal.expect("the nominal rate is one of the steps");
        self.put("driver.gen_lag_p99_ns", stats.gen_lag_p99_ns, "ns");
        self.put("driver.backlog_max", stats.backlog_max as f64, "count");
        self.put("faas.ring.full_handbacks", stats.ring_full as f64, "count");
        self.put("reliability.sheds", stats.delta.sheds as f64, "count");
        self.put("reliability.retries", stats.delta.retries as f64, "count");
        self.put(
            "reliability.hedges_launched",
            stats.delta.hedges_launched as f64,
            "count",
        );
        self.put(
            "reliability.deadline_misses",
            stats.delta.deadline_misses as f64,
            "count",
        );
    }
}

/// One `(vcpus, mode, pool)` point of the `vmm` sweep.
struct VmmPoint {
    pause_ns: f64,
    resume_ns: f64,
    virt_ns: u64,
    pool: horse_vmm::SplicePoolStats,
}
