//! Machine-readable benchmark trajectory with a regression gate.
//!
//! Runs the resume / merge / coalesce micro-benchmarks plus a seeded
//! end-to-end soak and emits two JSON artifacts:
//!
//! * `BENCH_resume.json` — per `(mode × vCPU)` resume totals, per-step
//!   breakdowns and the paper's dominant-share metric, plus the isolated
//!   merge (step ④) and coalesce (step ⑤) numbers;
//! * `BENCH_e2e.json` — per-class p50/p99/p99.9 end-to-end and resume
//!   latencies of a seeded cluster soak, with the full per-step tail
//!   attribution (exemplar trace ids included) from
//!   [`horse_metrics::TailAttribution`].
//!
//! Both carry the git sha and seed. All latencies are **virtual
//! nanoseconds** from the calibrated cost model, so a given tree
//! reproduces its numbers bit-for-bit on any machine — which is what
//! makes a *committed* baseline meaningful.
//!
//! Modes:
//!
//! * `bench_suite --seed 42 --out results` — run and write artifacts;
//! * `bench_suite --against results/bench_baseline.json` — also compare
//!   every `*_ns` leaf against the committed baseline
//!   ([`horse_bench::gate`]) and exit non-zero when any leaf drifts
//!   beyond the ±10 % band (the CI perf gate);
//! * `bench_suite --write-baseline` — regenerate the committed
//!   baseline's section for this seed;
//! * `bench_suite --slowdown-splice 2 --against ...` — scale the
//!   splice-path cost-model terms, which MUST trip the gate (CI runs
//!   this as the gate's negative test);
//! * `bench_suite --throughput --threads 1,4,8` — also run the
//!   multi-threaded closed-loop load generator against a shared
//!   `Arc<Cluster>` and emit `BENCH_throughput.json` (wall-clock
//!   invocations/sec and latency under contention, plus — for the
//!   single-threaded run only — deterministic virtual-latency leaves
//!   that join the `--against` gate). When the committed baseline
//!   carries those leaves, run `--against` together with
//!   `--throughput --threads 1` so the run produces them;
//! * `bench_suite --throughput --threads 1,4 --gate-speedup 2` — fail
//!   unless the best multi-threaded run clears `2×` the
//!   single-threaded invocations/sec (the CI smoke gate; opt-in, and it
//!   skips itself — saying so — on a machine with fewer cores than the
//!   widest `--threads` value, where the drivers cannot run in parallel
//!   and no speed-up is measurable; the `--gate-min-ips` floor stays
//!   armed there);
//! * `bench_suite --wall-clock-resume` — also measure *real* resume
//!   latency (real splice-worker threads, emulated per-vCPU wake cost)
//!   at 1–144 vCPUs and emit `BENCH_wallclock.json`, gating that the
//!   parallel splice's 1→144 growth stays sub-linear while vanilla's is
//!   ~linear; `--serial-splice` forces the pool inline, which MUST trip
//!   that gate (CI's negative self-test). The same run repeats the sweep
//!   with **no** emulated wake, inline against parallel (`zero_wake`
//!   section, same growth gate), and prints the vCPU count from which
//!   the parallel splice beats inline, if any. Its `peers` section holds
//!   the vCPU count at 2 and sweeps the number of *other* sandboxes
//!   paused on the same uLL queue (0–63), gating that a warm resume
//!   costs the same beside 63 paused peers as alone (< 2×).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use horse_bench::gate::{cost_model, git_sha, num, obj, passed, write_json, GateOptions};
use horse_bench::{paper_sched_config, policy_for};
use horse_faas::{Cluster, DispatchPolicy, FaasError, HostId, PlatformConfig, StartStrategy};
use horse_metrics::export::write_chrome_trace;
use horse_metrics::{Histogram, RobustSummary, TailAttribution};
use horse_telemetry::forensics::{chrome_trace_with_flows, ForensicIndex, SpanTree};
use horse_telemetry::json::JsonValue;
use horse_telemetry::{Recorder, TraceSnapshot};
use horse_vmm::{CostModel, PausePolicy, ResumeMode, ResumeStep, SandboxConfig, SplicePool, Vmm};
use horse_workloads::Category;

const SCHEMA_RESUME: &str = "horse-bench/resume/1";
const SCHEMA_E2E: &str = "horse-bench/e2e/1";
const SCHEMA_E2E_FORENSICS: &str = "horse-bench/e2e-forensics/1";
/// Slowest stitched trees kept in the e2e postmortem artifact.
const WORST_TREES: usize = 16;
const SCHEMA_THROUGHPUT: &str = "horse-bench/throughput/1";
const SCHEMA_WALLCLOCK: &str = "horse-bench/wallclock/1";

/// vCPU points of the micro sections (ends of the paper's Figure 2–3
/// sweep plus the mid-range knee).
const VCPUS: [u32; 3] = [1, 8, 36];

/// Invocation rounds of the e2e soak (each round = one warm + one
/// horse invocation).
const SOAK_ROUNDS: usize = 200;

/// Fleet shape of the throughput runs: hosts × provisioned sandboxes
/// per host. 8×4 = 32 warm sandboxes keeps the pool ahead of the
/// largest supported driver count (16), so a dry pool is a transient
/// all-in-flight window, never a steady state.
const THROUGHPUT_HOSTS: usize = 8;
const THROUGHPUT_PER_HOST: usize = 4;
/// Closed-loop invocation budget shared by the driver threads of one
/// throughput run.
const THROUGHPUT_INVOCATIONS: u64 = 4_000;
/// Largest supported `--threads` entry.
const MAX_THREADS: usize = 16;

/// `bench_suite`'s own flags (the shared four are [`GateOptions`]).
struct Options {
    slowdown_splice: f64,
    throughput: bool,
    threads: Vec<usize>,
    invocations: u64,
    gate_speedup: Option<f64>,
    gate_min_ips: Option<f64>,
    disable_batching: bool,
    wall_clock_resume: bool,
    serial_splice: bool,
}

const USAGE: &str = "usage: bench_suite [--seed <u64>] [--out <dir>] \
     [--against <baseline.json>] [--write-baseline] [--slowdown-splice <f64>] \
     [--throughput] [--threads <n,n,...>] [--invocations <u64>] \
     [--gate-speedup <f64>] [--gate-min-ips <f64>] [--disable-batching] \
     [--wall-clock-resume] [--serial-splice]";

impl Options {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<(GateOptions, Self), String> {
        let mut opts = Options {
            slowdown_splice: 1.0,
            throughput: false,
            threads: vec![1, 4],
            invocations: THROUGHPUT_INVOCATIONS,
            gate_speedup: None,
            gate_min_ips: None,
            disable_batching: false,
            wall_clock_resume: false,
            serial_splice: false,
        };
        let positive = |flag: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(format!("{flag} must be positive; {USAGE}"))
            }
        };
        let gate = GateOptions::parse(args, USAGE, |flag, value| {
            match flag {
                "--slowdown-splice" => opts.slowdown_splice = positive(flag, value.parsed()?)?,
                "--throughput" => opts.throughput = true,
                "--threads" => {
                    let mut threads = Vec::new();
                    for part in value.text()?.split(',') {
                        let n: usize = part
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad --threads entry {part:?}: {e}; {USAGE}"))?;
                        if n == 0 || n > MAX_THREADS {
                            return Err(format!(
                                "--threads entries must be 1..={MAX_THREADS}, got {n}; {USAGE}"
                            ));
                        }
                        if !threads.contains(&n) {
                            threads.push(n);
                        }
                    }
                    opts.threads = threads;
                }
                "--invocations" => {
                    opts.invocations = value.parsed()?;
                    if opts.invocations == 0 {
                        return Err(format!("--invocations must be positive; {USAGE}"));
                    }
                }
                "--gate-speedup" => opts.gate_speedup = Some(positive(flag, value.parsed()?)?),
                "--gate-min-ips" => opts.gate_min_ips = Some(positive(flag, value.parsed()?)?),
                "--disable-batching" => opts.disable_batching = true,
                "--wall-clock-resume" => opts.wall_clock_resume = true,
                "--serial-splice" => opts.serial_splice = true,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        if opts.serial_splice && !opts.wall_clock_resume {
            return Err(format!(
                "--serial-splice requires --wall-clock-resume; {USAGE}"
            ));
        }
        if opts.gate_min_ips.is_some() {
            if !opts.throughput {
                return Err(format!("--gate-min-ips requires --throughput; {USAGE}"));
            }
            if !opts.threads.contains(&1) {
                return Err(format!(
                    "--gate-min-ips gates the single-threaded run; --threads must include 1; \
                     {USAGE}"
                ));
            }
        }
        if opts.gate_speedup.is_some() {
            if !opts.throughput {
                return Err(format!("--gate-speedup requires --throughput; {USAGE}"));
            }
            if !opts.threads.contains(&1) || opts.threads.iter().all(|&t| t == 1) {
                return Err(format!(
                    "--gate-speedup needs --threads to include 1 and at least one multi-threaded \
                     point; {USAGE}"
                ));
            }
        }
        Ok((gate, opts))
    }
}

/// One deterministic pause/resume cycle under `cost`.
///
/// The splice pool is parallel here *on purpose*: the virtual `*_ns`
/// leaves this feeds are gated against the committed baseline, so every
/// gated run re-proves that real splice-worker threads leave the virtual
/// cost accounting bit-identical to the sequential path.
fn one_resume(cost: &CostModel, vcpus: u32, mode: ResumeMode) -> horse_vmm::ResumeBreakdown {
    let mut vmm = Vmm::new(paper_sched_config(), *cost);
    vmm.set_splice_pool(SplicePool::parallel(4));
    let cfg = SandboxConfig::builder()
        .vcpus(vcpus)
        .memory_mb(512)
        .ull(true)
        .build()
        .expect("static config is valid");
    let id = vmm.create(cfg);
    vmm.start(id).expect("fresh sandbox starts");
    vmm.pause(id, policy_for(mode))
        .expect("running sandbox pauses");
    vmm.resume(id, mode)
        .expect("paused sandbox resumes")
        .breakdown
}

/// The `resume` / `merge` / `coalesce` sections of `BENCH_resume.json`.
fn micro_sections(cost: &CostModel) -> (JsonValue, JsonValue, JsonValue) {
    let mut resume = BTreeMap::new();
    let mut merge = BTreeMap::new();
    let mut coalesce = BTreeMap::new();
    for mode in ResumeMode::ALL {
        for vcpus in VCPUS {
            let b = one_resume(cost, vcpus, mode);
            let key = format!("{}_v{vcpus}", mode.label());
            let total: u64 = b.total_ns();
            let mut steps = BTreeMap::new();
            for step in ResumeStep::ALL {
                steps.insert(format!("{}_ns", step.label()), num(b.get(step) as f64));
            }
            let dominant = (b.get(ResumeStep::SortedMerge) + b.get(ResumeStep::LoadUpdate)) as f64
                / total.max(1) as f64;
            resume.insert(
                key.clone(),
                obj(vec![
                    ("total_ns".into(), num(total as f64)),
                    ("steps".into(), JsonValue::Object(steps)),
                    ("dominant_share".into(), num(dominant)),
                ]),
            );
            merge.insert(
                format!("{key}_ns"),
                num(b.get(ResumeStep::SortedMerge) as f64),
            );
            coalesce.insert(
                format!("{key}_ns"),
                num(b.get(ResumeStep::LoadUpdate) as f64),
            );
        }
    }
    (
        JsonValue::Object(resume),
        JsonValue::Object(merge),
        JsonValue::Object(coalesce),
    )
}

/// vCPU points of the wall-clock resume sweep — past the paper's 36-vCPU
/// range, out to 2× the r650 core count, where linear growth is
/// unmistakable.
const WALL_VCPUS: [u32; 5] = [1, 8, 36, 72, 144];
/// Measured repetitions per wall-clock point (one warm-up cycle runs
/// first and is discarded).
const WALL_REPS: usize = 7;
/// Splice-pool width of the parallel points. Fixed — the whole claim is
/// that dispatch cost does not grow with the vCPU count.
const WALL_WORKERS: usize = 8;
/// Emulated per-vCPU wake cost. Stands in for the IPI + context-switch
/// work a real kernel does per woken vCPU; drives only real
/// `thread::sleep`s, never the virtual cost axis, so the deterministic
/// baseline gate is untouched.
const WALL_WAKE_NANOS: u64 = 20_000;
/// Measured repetitions per point of the zero-wake sweep: with no
/// emulated sleep a resume is microseconds, so the sweep can afford a
/// median over a few hundred.
const ZERO_WAKE_REPS: usize = 200;
/// Growth bound for the 1→144 sweep. Vanilla resume wakes all 144 vCPUs
/// from the resuming thread, so its wall-clock grows ~144× (timer slack
/// scales with it); the parallel splice spreads the same wakes over
/// [`WALL_WORKERS`] workers, growing ≤ ~18×. 36 sits between the two
/// with ≥ 2× margin each way.
const WALL_SUBLINEAR_BOUND: f64 = 36.0;

/// One wall-clock point of `(vcpus, mode)`: real resume latencies in
/// nanoseconds over `reps` warm pause/resume cycles, splicing on `pool`
/// with `wake_nanos` of emulated wake per vCPU.
///
/// The host carries a background uLL sandbox on even credits and the
/// measured sandbox on odd credits, so each resume splices one distinct
/// point per vCPU into a populated queue — the adversarial shape for
/// 𝒫²𝒮ℳ (maximum splice points) and the fair one for vanilla (same
/// per-vCPU insert count).
fn wall_resume_samples(
    cost: &CostModel,
    vcpus: u32,
    mode: ResumeMode,
    pool: SplicePool,
    wake_nanos: u64,
    reps: usize,
) -> Vec<f64> {
    let mut vmm = Vmm::new(paper_sched_config(), *cost);
    vmm.set_splice_pool(pool);
    vmm.set_wake_emulation_nanos(wake_nanos);

    let config = || {
        SandboxConfig::builder()
            .vcpus(vcpus)
            .memory_mb(512)
            .ull(true)
            .build()
            .expect("static config is valid")
    };
    let background = vmm.create(config());
    let evens: Vec<i64> = (0..i64::from(vcpus)).map(|i| 2 * i + 2).collect();
    vmm.start_with_credits(background, &evens)
        .expect("background sandbox starts");
    let measured = vmm.create(config());
    let odds: Vec<i64> = (0..i64::from(vcpus)).map(|i| 2 * i + 1).collect();
    vmm.start_with_credits(measured, &odds)
        .expect("measured sandbox starts");

    let policy = policy_for(mode);
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..=reps {
        vmm.pause(measured, policy).expect("running sandbox pauses");
        let t0 = Instant::now();
        vmm.resume(measured, mode).expect("paused sandbox resumes");
        if rep > 0 {
            samples.push(t0.elapsed().as_nanos() as f64);
        }
    }
    samples
}

/// One summarised point of the wall-clock sweep.
struct WallPoint {
    vcpus: u32,
    summary: RobustSummary,
}

/// Measures the full [`WALL_VCPUS`] sweep for one mode, each point on a
/// fresh VMM with its own `pool()`.
fn wall_sweep(
    cost: &CostModel,
    mode: ResumeMode,
    pool: &dyn Fn() -> SplicePool,
    wake_nanos: u64,
    reps: usize,
) -> Vec<WallPoint> {
    WALL_VCPUS
        .iter()
        .map(|&vcpus| WallPoint {
            vcpus,
            summary: RobustSummary::of(&wall_resume_samples(
                cost,
                vcpus,
                mode,
                pool(),
                wake_nanos,
                reps,
            )),
        })
        .collect()
}

/// Smallest swept vCPU count at which the `parallel` sweep's median
/// resume beats the `inline` one's, if any.
fn wall_crossover(inline: &[WallPoint], parallel: &[WallPoint]) -> Option<u32> {
    inline
        .iter()
        .zip(parallel)
        .find(|(i, p)| p.summary.median < i.summary.median)
        .map(|(i, _)| i.vcpus)
}

/// Wall-clock growth of the sweep: last point over first point, on the
/// outlier-robust means.
fn wall_growth(points: &[WallPoint]) -> f64 {
    let first = points.first().expect("sweep is non-empty").summary.mean;
    let last = points.last().expect("sweep is non-empty").summary.mean;
    last / first.max(f64::MIN_POSITIVE)
}

/// JSON of one wall-clock point. Keys use `_nanos` (never `_ns`):
/// wall-clock numbers are machine-dependent and must stay invisible to
/// the deterministic baseline gate's leaf scan.
fn wall_point_json(summary: &RobustSummary) -> JsonValue {
    obj(vec![
        ("resume_mean_nanos".into(), num(summary.mean)),
        ("resume_median_nanos".into(), num(summary.median)),
        ("resume_min_nanos".into(), num(summary.min)),
        ("resume_max_nanos".into(), num(summary.max)),
        ("samples_kept".into(), num(summary.kept as f64)),
        ("samples_rejected".into(), num(summary.rejected as f64)),
    ])
}

/// JSON section of one mode's sweep.
fn wall_mode_json(points: &[WallPoint]) -> JsonValue {
    let mut map = BTreeMap::new();
    for p in points {
        map.insert(format!("v{}", p.vcpus), wall_point_json(&p.summary));
    }
    map.insert("growth_144_over_1".to_string(), num(wall_growth(points)));
    JsonValue::Object(map)
}

/// Paused-peer counts of the `peers` sweep: sandboxes paused on the same
/// uLL queue as the measured one, each holding a 𝒫²𝒮ℳ plan against it.
const PEER_COUNTS: [usize; 4] = [0, 3, 15, 63];
/// Measured resume → pause cycles per `peers` point (a resume is a few
/// hundred nanoseconds).
const PEER_CYCLES: usize = 2_000;
/// A warm resume must not depend on how many sandboxes are paused beside
/// it. Before peer-plan maintenance went lazy, every resume rebuilt every
/// peer's plan and this ratio was ≈ linear in the peer count.
const PEER_GROWTH_BOUND: f64 = 2.0;

/// Real inline HORSE resume latencies of a 2-vCPU sandbox over
/// [`PEER_CYCLES`] warm resume → pause cycles, with `peers` other 2-vCPU
/// sandboxes paused on the same uLL queue throughout.
fn peers_resume_samples(cost: &CostModel, peers: usize) -> Vec<f64> {
    let mut vmm = Vmm::new(paper_sched_config(), *cost);
    let config = SandboxConfig::builder()
        .vcpus(2)
        .memory_mb(512)
        .ull(true)
        .build()
        .expect("static config is valid");
    // The peers, then the measured sandbox.
    let paused: Vec<_> = (0..=peers)
        .map(|_| {
            let id = vmm.create(config);
            vmm.start(id).expect("fresh sandbox starts");
            vmm.pause(id, PausePolicy::horse())
                .expect("running sandbox pauses");
            id
        })
        .collect();
    let measured = paused[peers];
    let mut samples = Vec::with_capacity(PEER_CYCLES);
    for cycle in 0..=PEER_CYCLES {
        let t0 = Instant::now();
        vmm.resume(measured, ResumeMode::Horse)
            .expect("paused sandbox resumes");
        let nanos = t0.elapsed().as_nanos() as f64;
        vmm.pause(measured, PausePolicy::horse())
            .expect("running sandbox pauses");
        if cycle > 0 {
            samples.push(nanos);
        }
    }
    samples
}

/// Seeded cluster soak: warm (vanilla resume) and horse invocations on a
/// 3-host cluster, traced end to end. Returns the e2e JSON section and
/// the snapshot (for the sample Chrome trace artifact).
fn e2e_soak(seed: u64, cost: &CostModel) -> (JsonValue, TraceSnapshot) {
    let config = PlatformConfig {
        cost: *cost,
        ..PlatformConfig::default()
    };
    let mut cluster = Cluster::with_config(3, DispatchPolicy::RoundRobin, seed, config);
    let recorder = Recorder::enabled();
    cluster.set_recorder(recorder.clone());

    let vanilla = SandboxConfig::builder().vcpus(1).build().unwrap();
    let ull = SandboxConfig::builder().vcpus(2).ull(true).build().unwrap();
    let warm_fn = cluster.register("nat", Category::Cat2, vanilla);
    let horse_fn = cluster.register("filter", Category::Cat3, ull);
    cluster
        .provision_all(warm_fn, 2, StartStrategy::Warm)
        .expect("provision warm pool");
    cluster
        .provision_all(horse_fn, 2, StartStrategy::Horse)
        .expect("provision horse pool");
    recorder.drain(); // provisioning is untraced noise: keep it out

    for _ in 0..SOAK_ROUNDS {
        cluster
            .invoke(warm_fn, StartStrategy::Warm)
            .expect("warm invoke");
        cluster
            .invoke(horse_fn, StartStrategy::Horse)
            .expect("horse invoke");
    }
    let snapshot = recorder.drain();

    let attribution = TailAttribution::from_snapshot(&snapshot);
    let mut classes = BTreeMap::new();
    for (class, attr) in &attribution.classes {
        let mut entry = vec![("invocations".to_string(), num(attr.e2e.len() as f64))];
        for (pct, tag) in [(50.0, "p50"), (99.0, "p99"), (99.9, "p999")] {
            entry.push((
                format!("e2e_{tag}_ns"),
                num(attr.e2e.percentile(pct) as f64),
            ));
            entry.push((
                format!("resume_{tag}_ns"),
                num(attr.resume.percentile(pct) as f64),
            ));
        }
        classes.insert(class.to_string(), obj(entry));
    }
    let report = attribution.report(&[50.0, 99.0, 99.9]);
    let section = obj(vec![
        ("invocations".into(), num((SOAK_ROUNDS * 2) as f64)),
        ("classes".into(), JsonValue::Object(classes)),
        ("attribution".into(), report.to_json()),
    ]);
    (section, snapshot)
}

/// Result of one closed-loop throughput run at a fixed driver count.
struct ThroughputRun {
    threads: usize,
    invocations: u64,
    elapsed_seconds: f64,
    invocations_per_sec: f64,
    /// Wall-clock per-invocation latency (slot claim → success),
    /// including retry backoff under contention.
    wall: Histogram,
    /// Virtual (cost-model) init and end-to-end latency — deterministic
    /// for a single driver thread.
    virt_init: Histogram,
    virt_total: Histogram,
    retries: u64,
    warm_hit_ratio: f64,
    /// Invariant breaches (lost/duplicated sandboxes, stats drift,
    /// starved drivers). Non-empty fails the suite.
    violations: Vec<String>,
}

/// Requests each driver claims from the shared budget per batched
/// submission ([`Cluster::invoke_batch`]). Matches the fleet's warm
/// inventory, so one single-threaded batch exercises every host.
const DRIVER_BATCH: u64 = 32;

/// Drives a fresh seeded cluster with `threads` closed-loop workers
/// sharing one atomic invocation budget, then audits the fleet for
/// conservation and stats consistency.
///
/// With `batching`, workers claim [`DRIVER_BATCH`] slots at a time and
/// submit them through the ring-fed [`Cluster::invoke_batch`] path —
/// the default, and what the `--gate-min-ips` floor measures. Without
/// it (`--disable-batching`) each slot goes through the sequential
/// [`Cluster::invoke`] path; CI uses that as the floor gate's negative
/// test. Virtual-latency leaves are identical either way at one driver
/// thread (the equivalence `crates/faas/tests/batch.rs` pins).
fn throughput_run(
    seed: u64,
    cost: &CostModel,
    threads: usize,
    budget: u64,
    batching: bool,
) -> ThroughputRun {
    let config = PlatformConfig {
        cost: *cost,
        ..PlatformConfig::default()
    };
    // The recorder stays disabled: traced runs are single-driver
    // (DESIGN.md §10), and the ring would only add contention noise to
    // the wall-clock numbers.
    let mut cluster =
        Cluster::with_config(THROUGHPUT_HOSTS, DispatchPolicy::RoundRobin, seed, config);
    let ull = SandboxConfig::builder()
        .vcpus(2)
        .ull(true)
        .build()
        .expect("static config");
    let f = cluster.register("filter", Category::Cat3, ull);
    cluster
        .provision_all(f, THROUGHPUT_PER_HOST, StartStrategy::Horse)
        .expect("provision throughput pool");
    let provisioned = THROUGHPUT_HOSTS * THROUGHPUT_PER_HOST;
    let cluster = Arc::new(cluster);

    struct WorkerResult {
        wall: Histogram,
        virt_init: Histogram,
        virt_total: Histogram,
        successes: u64,
        retries: u64,
        starved: u64,
    }

    let next_slot = AtomicU64::new(0);
    let started = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cluster = &cluster;
                let next_slot = &next_slot;
                scope.spawn(move || {
                    let mut r = WorkerResult {
                        wall: Histogram::new(),
                        virt_init: Histogram::new(),
                        virt_total: Histogram::new(),
                        successes: 0,
                        retries: 0,
                        starved: 0,
                    };
                    if batching {
                        // Batched driver: claim a run of slots, submit
                        // them through the per-host rings, and keep
                        // draining until the call returns clean. The
                        // drains are cooperative, so a worker's batch
                        // may serve requests another worker enqueued —
                        // successes count records *received*, which is
                        // conserved across workers.
                        let mut got: Vec<(HostId, horse_faas::InvocationRecord)> =
                            Vec::with_capacity(2 * DRIVER_BATCH as usize);
                        let mut drain = |r: &mut WorkerResult, enqueue: usize| loop {
                            let t0 = Instant::now();
                            got.clear();
                            let result =
                                cluster.invoke_batch(f, StartStrategy::Horse, enqueue, &mut got);
                            if !got.is_empty() {
                                // Amortized wall share: the batch is the
                                // unit of work, each record gets its
                                // slice.
                                let share = (t0.elapsed().as_nanos() / got.len() as u128) as u64;
                                for (_, record) in &got {
                                    r.wall.record(share);
                                    r.virt_init.record(record.init_ns);
                                    r.virt_total.record(record.total_ns());
                                }
                                r.successes += got.len() as u64;
                            }
                            match result {
                                Ok(_) => return true,
                                // Transient dry pool: the unserved tail
                                // went back into the rings — mop up.
                                Err(FaasError::NoWarmSandbox { .. }) => {
                                    r.retries += 1;
                                    std::thread::yield_now();
                                }
                                Err(_) => {
                                    r.starved += 1;
                                    return false;
                                }
                            }
                        };
                        loop {
                            let start = next_slot.fetch_add(DRIVER_BATCH, Ordering::Relaxed);
                            if start >= budget {
                                break;
                            }
                            let want = DRIVER_BATCH.min(budget - start) as usize;
                            if !drain(&mut r, want) {
                                break;
                            }
                        }
                        // Final mop-up: leftovers another worker's error
                        // returned to the rings after our last drain.
                        drain(&mut r, 0);
                        return r;
                    }
                    while next_slot.fetch_add(1, Ordering::Relaxed) < budget {
                        let t0 = Instant::now();
                        // A dry pool under contention is a transient
                        // all-in-flight window (the fleet holds 2×
                        // MAX_THREADS sandboxes): retry, charging the
                        // wait to this invocation's wall latency.
                        let mut attempts = 0u64;
                        loop {
                            match cluster.invoke(f, StartStrategy::Horse) {
                                Ok((_, record)) => {
                                    r.wall.record(t0.elapsed().as_nanos() as u64);
                                    r.virt_init.record(record.init_ns);
                                    r.virt_total.record(record.total_ns());
                                    r.successes += 1;
                                    break;
                                }
                                Err(FaasError::NoWarmSandbox { .. }) if attempts < 100_000 => {
                                    attempts += 1;
                                    r.retries += 1;
                                    std::thread::yield_now();
                                }
                                Err(_) => {
                                    r.starved += 1;
                                    break;
                                }
                            }
                        }
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let elapsed_seconds = started.elapsed().as_secs_f64();

    let mut wall = Histogram::new();
    let mut virt_init = Histogram::new();
    let mut virt_total = Histogram::new();
    let mut successes = 0u64;
    let mut retries = 0u64;
    let mut starved = 0u64;
    for r in results {
        wall.merge(&r.wall);
        virt_init.merge(&r.virt_init);
        virt_total.merge(&r.virt_total);
        successes += r.successes;
        retries += r.retries;
        starved += r.starved;
    }

    let mut violations = Vec::new();
    if starved > 0 {
        violations.push(format!(
            "{threads} threads: {starved} invocation(s) starved or failed outright"
        ));
    }
    if successes != budget {
        violations.push(format!(
            "{threads} threads: {successes} successes for a budget of {budget}"
        ));
    }
    // Conservation: every sandbox re-paused into its pool — nothing
    // lost to a race, nothing duplicated.
    let inventory: usize = (0..THROUGHPUT_HOSTS)
        .map(|i| cluster.host(HostId(i)).pool_size(f, StartStrategy::Horse))
        .sum();
    if inventory != provisioned {
        violations.push(format!(
            "{threads} threads: warm inventory {inventory} != provisioned {provisioned}"
        ));
    }
    // Stats consistency: one pool hit per success, no evictions (the
    // keep-alive clock never advances, no faults are armed).
    let stats = cluster.aggregate_pool_stats(f, StartStrategy::Horse);
    if stats.hits != successes {
        violations.push(format!(
            "{threads} threads: {} pool hits for {successes} successes",
            stats.hits
        ));
    }
    if stats.evictions != 0 {
        violations.push(format!(
            "{threads} threads: {} evictions on an idle keep-alive clock",
            stats.evictions
        ));
    }
    let attempts = stats.hits + stats.misses;
    let warm_hit_ratio = if attempts == 0 {
        0.0
    } else {
        stats.hits as f64 / attempts as f64
    };

    ThroughputRun {
        threads,
        invocations: successes,
        elapsed_seconds,
        invocations_per_sec: successes as f64 / elapsed_seconds.max(f64::MIN_POSITIVE),
        wall,
        virt_init,
        virt_total,
        retries,
        warm_hit_ratio,
        violations,
    }
}

/// Wall-clock cost of `Histogram::record`, measured in-process over a
/// deterministic latency-shaped (xorshift) value stream. Reported per
/// `crates/metrics`'s `#[inline]` documentation; `benchmark/` measures
/// the same call as `metrics.histogram_record_ns`.
fn histogram_record_cost_ns() -> f64 {
    const N: usize = 1_000_000;
    let mut x = 0x9e3779b97f4a7c15u64;
    let values: Vec<u64> = (0..N)
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
    let per_op = t0.elapsed().as_nanos() as f64 / h.len().max(1) as f64;
    // The histogram itself must not be optimized away.
    assert_eq!(h.len(), N as u64);
    per_op
}

/// The JSON section of one throughput run. Wall-clock metrics
/// deliberately avoid the `_ns` key suffix so the deterministic perf
/// gate never sees them; the single-threaded run additionally carries
/// `virtual` `*_ns` leaves, which are deterministic and gated.
fn throughput_run_json(run: &ThroughputRun) -> JsonValue {
    let mut entry = vec![
        ("threads".to_string(), num(run.threads as f64)),
        ("invocations".to_string(), num(run.invocations as f64)),
        ("elapsed_seconds".to_string(), num(run.elapsed_seconds)),
        (
            "invocations_per_sec".to_string(),
            num(run.invocations_per_sec),
        ),
        (
            "wall_p50_nanos".to_string(),
            num(run.wall.percentile(50.0) as f64),
        ),
        (
            "wall_p99_nanos".to_string(),
            num(run.wall.percentile(99.0) as f64),
        ),
        ("warm_hit_ratio".to_string(), num(run.warm_hit_ratio)),
        ("retries".to_string(), num(run.retries as f64)),
        (
            "invariant_violations".to_string(),
            num(run.violations.len() as f64),
        ),
    ];
    if run.threads == 1 {
        entry.push((
            "virtual".to_string(),
            obj(vec![
                (
                    "init_p50_ns".into(),
                    num(run.virt_init.percentile(50.0) as f64),
                ),
                (
                    "init_p99_ns".into(),
                    num(run.virt_init.percentile(99.0) as f64),
                ),
                (
                    "total_p50_ns".into(),
                    num(run.virt_total.percentile(50.0) as f64),
                ),
                (
                    "total_p99_ns".into(),
                    num(run.virt_total.percentile(99.0) as f64),
                ),
            ]),
        ));
    }
    obj(entry)
}

fn main() {
    let (gate, opts) = match Options::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&gate.out).expect("create out dir");
    let sha = git_sha();
    let cost = cost_model(opts.slowdown_splice);

    let (resume, merge, coalesce) = micro_sections(&cost);
    let resume_doc = obj(vec![
        ("schema".into(), JsonValue::String(SCHEMA_RESUME.into())),
        ("git_sha".into(), JsonValue::String(sha.clone())),
        ("seed".into(), num(gate.seed as f64)),
        ("slowdown_splice".into(), num(opts.slowdown_splice)),
        ("resume".into(), resume),
        ("merge".into(), merge),
        ("coalesce".into(), coalesce),
    ]);
    let resume_path = format!("{}/BENCH_resume.json", gate.out);
    write_json(&resume_path, &resume_doc);

    let (e2e_section, snapshot) = e2e_soak(gate.seed, &cost);
    let e2e_doc = obj(vec![
        ("schema".into(), JsonValue::String(SCHEMA_E2E.into())),
        ("git_sha".into(), JsonValue::String(sha.clone())),
        ("seed".into(), num(gate.seed as f64)),
        ("slowdown_splice".into(), num(opts.slowdown_splice)),
        ("e2e".into(), e2e_section),
    ]);
    let e2e_path = format!("{}/BENCH_e2e.json", gate.out);
    write_json(&e2e_path, &e2e_doc);

    // Sample Chrome trace of the soak — uploaded by CI next to the JSON
    // so a regression comes with the trace that explains it.
    let trace_path = format!("{}/BENCH_e2e.trace.json", gate.out);
    write_chrome_trace(&trace_path, &snapshot).expect("write sample trace");
    if snapshot.dropped > 0 {
        eprintln!(
            "warning: soak dropped {} events — percentiles are lower bounds",
            snapshot.dropped
        );
    }

    // Postmortem stitch of the same soak: the slowest invoke trees as a
    // Chrome trace with flow arrows plus the stitch ledger, so a perf
    // gate failure uploads the causal trees that explain it (the soak
    // has no reliability plane; these are invoke-rooted trees, not
    // submission trees).
    let forensics = ForensicIndex::stitch(&snapshot);
    let mut worst: Vec<&SpanTree> = forensics.trees.iter().collect();
    worst.sort_by(|a, b| {
        b.duration_ns()
            .cmp(&a.duration_ns())
            .then(a.invocation.cmp(&b.invocation))
    });
    worst.truncate(WORST_TREES);
    let forensics_doc = obj(vec![
        (
            "schema".into(),
            JsonValue::String(SCHEMA_E2E_FORENSICS.into()),
        ),
        ("git_sha".into(), JsonValue::String(sha.clone())),
        ("seed".into(), num(gate.seed as f64)),
        ("trees".into(), num(forensics.trees.len() as f64)),
        ("orphan_events".into(), num(forensics.orphan_events as f64)),
        ("extra_roots".into(), num(forensics.extra_roots as f64)),
        (
            "dropped_events".into(),
            num(forensics.dropped_events as f64),
        ),
        (
            "fingerprint".into(),
            JsonValue::String(format!("{:016x}", forensics.fingerprint())),
        ),
        (
            "worst".into(),
            JsonValue::Array(
                worst
                    .iter()
                    .map(|t| {
                        obj(vec![
                            ("invocation".into(), num(t.invocation as f64)),
                            ("dur_ns".into(), num(t.duration_ns() as f64)),
                            ("nodes".into(), num(t.len() as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let forensics_path = format!("{}/BENCH_e2e.forensics.json", gate.out);
    write_json(&forensics_path, &forensics_doc);
    let forensics_trace_path = format!("{}/BENCH_e2e.forensics.trace.json", gate.out);
    let mut forensics_trace = chrome_trace_with_flows(worst.iter().copied());
    forensics_trace.push('\n');
    std::fs::write(&forensics_trace_path, forensics_trace)
        .unwrap_or_else(|e| panic!("write {forensics_trace_path}: {e}"));
    println!(
        "{forensics_path}: {SCHEMA_E2E_FORENSICS} ({} trees, {} orphans)",
        forensics.trees.len(),
        forensics.orphan_events
    );
    println!(
        "{forensics_trace_path}: worst {} invoke trees with flow events",
        worst.len()
    );
    println!(
        "{resume_path}: {SCHEMA_RESUME} (sha {sha}, seed {})",
        gate.seed
    );
    println!(
        "{e2e_path}: {SCHEMA_E2E} ({} traced events)",
        snapshot.events.len()
    );
    println!("{trace_path}: sample Chrome trace");

    // The comparable surface: every document's *_ns leaves under one
    // root (the throughput doc joins below when `--throughput` ran, so
    // a baseline carrying its leaves must be gated with the same flag).
    let mut section_entries = vec![
        ("resume_doc".to_string(), resume_doc),
        ("e2e_doc".to_string(), e2e_doc),
    ];

    let mut throughput_failures: Vec<String> = Vec::new();
    if opts.throughput {
        let record_cost = histogram_record_cost_ns();
        let mut runs = BTreeMap::new();
        let mut single_thread_ips = None;
        let mut best_multi: Option<&ThroughputRun> = None;
        let mut all_runs = Vec::new();
        for &threads in &opts.threads {
            let run = throughput_run(
                gate.seed,
                &cost,
                threads,
                opts.invocations,
                !opts.disable_batching,
            );
            println!(
                "throughput: {:>2} thread(s) -> {:>10.0} inv/s \
                 (wall p50 {} ns, p99 {} ns, {} retries, {} violation(s))",
                threads,
                run.invocations_per_sec,
                run.wall.percentile(50.0),
                run.wall.percentile(99.0),
                run.retries,
                run.violations.len()
            );
            throughput_failures.extend(run.violations.iter().cloned());
            all_runs.push(run);
        }
        for run in &all_runs {
            if run.threads == 1 {
                single_thread_ips = Some(run.invocations_per_sec);
            } else {
                match best_multi {
                    Some(b) if run.invocations_per_sec <= b.invocations_per_sec => {}
                    _ => best_multi = Some(run),
                }
            }
            runs.insert(run.threads.to_string(), throughput_run_json(run));
        }
        let speedup = match (single_thread_ips, best_multi) {
            (Some(single), Some(best)) if single > 0.0 => {
                Some((best.threads, best.invocations_per_sec / single))
            }
            _ => None,
        };
        if let Some(floor) = opts.gate_min_ips {
            match single_thread_ips {
                Some(ips) if ips >= floor => println!(
                    "throughput gate: single-thread reaches {ips:.0} inv/s (>= {floor:.0} floor)"
                ),
                Some(ips) => throughput_failures.push(format!(
                    "min-ips gate: single-thread reaches only {ips:.0} inv/s, \
                     below the {floor:.0} floor"
                )),
                None => throughput_failures
                    .push("min-ips gate: no single-threaded run measured".to_string()),
            }
        }
        let widest = opts.threads.iter().copied().max().unwrap_or(1);
        let cores = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
        if opts.gate_speedup.is_some() && cores < widest {
            println!(
                "throughput gate: speedup gate SKIPPED — available_parallelism is {cores}, \
                 below the widest --threads value ({widest}): the drivers share cores, so no \
                 speed-up is measurable here"
            );
        } else if let Some(gate) = opts.gate_speedup {
            match speedup {
                Some((threads, s)) if s >= gate => println!(
                    "throughput gate: {threads} threads reach {s:.2}x single-thread (>= {gate}x)"
                ),
                Some((threads, s)) => throughput_failures.push(format!(
                    "speedup gate: best multi-threaded point ({threads} threads) reaches only \
                     {s:.2}x single-thread, below the {gate}x gate"
                )),
                None => throughput_failures
                    .push("speedup gate: no comparable single/multi thread pair ran".to_string()),
            }
        }

        let mut throughput_entries = vec![
            (
                "schema".to_string(),
                JsonValue::String(SCHEMA_THROUGHPUT.into()),
            ),
            ("git_sha".to_string(), JsonValue::String(sha.clone())),
            ("seed".to_string(), num(gate.seed as f64)),
            ("hosts".to_string(), num(THROUGHPUT_HOSTS as f64)),
            (
                "provisioned_per_host".to_string(),
                num(THROUGHPUT_PER_HOST as f64),
            ),
            (
                "invocation_budget".to_string(),
                num(opts.invocations as f64),
            ),
            (
                "available_parallelism".to_string(),
                num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("histogram_record_ns_per_op".to_string(), num(record_cost)),
            (
                "batching".to_string(),
                JsonValue::Bool(!opts.disable_batching),
            ),
            ("runs".to_string(), JsonValue::Object(runs)),
        ];
        if let Some((threads, s)) = speedup {
            throughput_entries.push((
                "best_speedup".to_string(),
                obj(vec![
                    ("threads".into(), num(threads as f64)),
                    ("vs_single_thread".into(), num(s)),
                ]),
            ));
        }
        let throughput_doc = obj(throughput_entries);
        let throughput_path = format!("{}/BENCH_throughput.json", gate.out);
        write_json(&throughput_path, &throughput_doc);
        println!(
            "{throughput_path}: {SCHEMA_THROUGHPUT} (Histogram::record = {record_cost:.1} ns/op)"
        );
        section_entries.push(("throughput_doc".to_string(), throughput_doc));
    }

    // Wall-clock resume sweep: real threads, real sleeps, robust stats.
    // Deliberately NOT part of `sections` — nothing here is
    // deterministic, so nothing here may join the baseline gate.
    let mut wall_failures: Vec<String> = Vec::new();
    if opts.wall_clock_resume {
        // `--serial-splice`: the "parallel" sweep splices on the calling
        // thread, which must trip the sub-linearity gate below.
        let parallel_pool = || {
            if opts.serial_splice {
                SplicePool::inline()
            } else {
                SplicePool::parallel(WALL_WORKERS)
            }
        };
        let horse = wall_sweep(
            &cost,
            ResumeMode::Horse,
            &parallel_pool,
            WALL_WAKE_NANOS,
            WALL_REPS,
        );
        let vanil = wall_sweep(
            &cost,
            ResumeMode::Vanilla,
            &SplicePool::inline,
            WALL_WAKE_NANOS,
            WALL_REPS,
        );
        // The same sweep with no emulated wake at all: what the splice
        // and its hand-off cost on their own, inline against parallel
        // (never serialized — `--serial-splice` tests the gate above).
        let zero_inline = wall_sweep(
            &cost,
            ResumeMode::Horse,
            &SplicePool::inline,
            0,
            ZERO_WAKE_REPS,
        );
        let zero_parallel = wall_sweep(
            &cost,
            ResumeMode::Horse,
            &|| SplicePool::parallel(WALL_WORKERS),
            0,
            ZERO_WAKE_REPS,
        );
        for (label, points) in [
            ("horse", &horse),
            ("vanil", &vanil),
            ("zero-wake inline", &zero_inline),
            ("zero-wake parallel", &zero_parallel),
        ] {
            for p in points {
                println!(
                    "wallclock: {label} v{:>3} -> mean {:>12.0} ns \
                     (median {:.0}, min {:.0}, max {:.0}, {} kept / {} rejected)",
                    p.vcpus,
                    p.summary.mean,
                    p.summary.median,
                    p.summary.min,
                    p.summary.max,
                    p.summary.kept,
                    p.summary.rejected
                );
            }
        }
        let horse_growth = wall_growth(&horse);
        let vanil_growth = wall_growth(&vanil);
        if horse_growth < WALL_SUBLINEAR_BOUND {
            println!(
                "wallclock gate: parallel-splice growth 1→144 is {horse_growth:.1}x \
                 (sub-linear, < {WALL_SUBLINEAR_BOUND}x)"
            );
        } else {
            wall_failures.push(format!(
                "parallel-splice wall-clock growth 1→144 is {horse_growth:.1}x, \
                 not sub-linear (gate: < {WALL_SUBLINEAR_BOUND}x)"
            ));
        }
        if vanil_growth >= WALL_SUBLINEAR_BOUND {
            println!(
                "wallclock gate: vanilla growth 1→144 is {vanil_growth:.1}x \
                 (~linear, >= {WALL_SUBLINEAR_BOUND}x) — the comparison is live"
            );
        } else {
            wall_failures.push(format!(
                "vanilla wall-clock growth 1→144 is only {vanil_growth:.1}x \
                 (gate: >= {WALL_SUBLINEAR_BOUND}x) — the wake emulation is not \
                 exercising the linear path, so the sub-linear claim proves nothing"
            ));
        }

        let zero_growth = wall_growth(&zero_parallel);
        if zero_growth < WALL_SUBLINEAR_BOUND {
            println!(
                "wallclock gate: zero-wake parallel-splice growth 1→144 is {zero_growth:.1}x \
                 (sub-linear, < {WALL_SUBLINEAR_BOUND}x)"
            );
        } else {
            wall_failures.push(format!(
                "zero-wake parallel-splice wall-clock growth 1→144 is {zero_growth:.1}x, \
                 not sub-linear (gate: < {WALL_SUBLINEAR_BOUND}x)"
            ));
        }
        let crossover = wall_crossover(&zero_inline, &zero_parallel);
        match crossover {
            Some(vcpus) => {
                println!("wallclock: zero-wake parallel splice beats inline from {vcpus} vCPUs")
            }
            None => println!(
                "wallclock: zero-wake parallel splice beats inline at no swept width (≤ {} vCPUs)",
                WALL_VCPUS[WALL_VCPUS.len() - 1]
            ),
        }

        // O(1) in paused peers: the same 2-vCPU warm resume beside 0–63
        // sandboxes paused on its queue.
        let peers: Vec<(usize, RobustSummary)> = PEER_COUNTS
            .iter()
            .map(|&p| (p, RobustSummary::of(&peers_resume_samples(&cost, p))))
            .collect();
        for (p, summary) in &peers {
            println!(
                "wallclock: horse inline v2 beside {p:>2} paused peers -> mean {:>8.0} ns \
                 (median {:.0}, {} kept / {} rejected)",
                summary.mean, summary.median, summary.kept, summary.rejected
            );
        }
        let alone = peers[0].1.mean.max(f64::MIN_POSITIVE);
        let peers_growth = peers[peers.len() - 1].1.mean / alone;
        let most = PEER_COUNTS[PEER_COUNTS.len() - 1];
        if peers_growth < PEER_GROWTH_BOUND {
            println!(
                "wallclock gate: resume beside {most} paused peers is {peers_growth:.2}x \
                 the lone resume (O(1) in peers, < {PEER_GROWTH_BOUND}x)"
            );
        } else {
            wall_failures.push(format!(
                "resume beside {most} paused peers is {peers_growth:.2}x the lone resume \
                 (gate: < {PEER_GROWTH_BOUND}x) — peer plans are being rebuilt on the resume path"
            ));
        }
        let mut peers_json: BTreeMap<String, JsonValue> = peers
            .iter()
            .map(|(p, summary)| (format!("p{p}"), wall_point_json(summary)))
            .collect();
        peers_json.insert("cycles".into(), num(PEER_CYCLES as f64));
        peers_json.insert("growth_bound".into(), num(PEER_GROWTH_BOUND));
        peers_json.insert(format!("growth_{most}_over_0"), num(peers_growth));

        let wall_doc = obj(vec![
            ("schema".into(), JsonValue::String(SCHEMA_WALLCLOCK.into())),
            ("git_sha".into(), JsonValue::String(sha.clone())),
            ("seed".into(), num(gate.seed as f64)),
            ("splice_workers".into(), num(WALL_WORKERS as f64)),
            ("wake_emulation_nanos".into(), num(WALL_WAKE_NANOS as f64)),
            ("repetitions".into(), num(WALL_REPS as f64)),
            ("serial_splice".into(), JsonValue::Bool(opts.serial_splice)),
            ("sublinear_bound".into(), num(WALL_SUBLINEAR_BOUND)),
            (
                "available_parallelism".into(),
                num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("horse".into(), wall_mode_json(&horse)),
            ("vanil".into(), wall_mode_json(&vanil)),
            (
                "zero_wake".into(),
                obj(vec![
                    ("repetitions".into(), num(ZERO_WAKE_REPS as f64)),
                    ("inline".into(), wall_mode_json(&zero_inline)),
                    ("parallel".into(), wall_mode_json(&zero_parallel)),
                    (
                        "crossover_vcpus".into(),
                        crossover.map_or(JsonValue::Null, |v| num(f64::from(v))),
                    ),
                ]),
            ),
            ("peers".into(), JsonValue::Object(peers_json)),
        ]);
        let wall_path = format!("{}/BENCH_wallclock.json", gate.out);
        write_json(&wall_path, &wall_doc);
        println!(
            "{wall_path}: {SCHEMA_WALLCLOCK} (horse {horse_growth:.1}x, \
             vanil {vanil_growth:.1}x over 1→144 vCPUs)"
        );
    }

    let sections = obj(section_entries);

    let held = gate.settle(&sections)
        && passed("throughput suite", &throughput_failures)
        && passed("wall-clock gate", &wall_failures);
    if !held {
        std::process::exit(1);
    }
}
