//! Continuous-profiling report with a CI gate.
//!
//! Runs a seeded, single-driver cluster soak with the profiling plane
//! enabled (the counting `#[global_allocator]`, phase-scoped allocation
//! attribution, and timed-lock/CAS contention counters) and emits:
//!
//! * `BENCH_profile.json` — allocations and bytes per pipeline phase,
//!   lock acquisitions / nominal wait / CAS retries per contention
//!   site, per-shard warm-pool occupancy, the three gated leaves
//!   (`gate.allocs_per_warm_invoke`, `gate.lock_wait_ns`,
//!   `gate.lock_acquisitions_per_warm_invoke`), and the
//!   steady-state allocations per invoke of the three paths
//!   `--gate-zero-alloc` holds to zero (`zero_alloc.*`);
//! * `BENCH_profile.prom` — the same state as a Prometheus text-format
//!   page (plus wall-clock lock-wait histograms, which are informative
//!   only and never gated).
//!
//! Everything under the JSON document's deterministic sections comes
//! from *counts* of a seeded single-threaded workload, so a given tree
//! reproduces them bit-for-bit: `gate.lock_wait_ns` is acquisitions ×
//! a nominal per-acquisition constant — wall-clock waits are too noisy
//! for a ±10 % gate, acquisition counts are not. The binary proves the
//! determinism claim on every run by executing the measured soak twice
//! and failing if any gated number differs, and proves profiling is
//! observation-only by running once more with the plane disabled and
//! failing if any virtual-latency percentile moved.
//!
//! Modes:
//!
//! * `profile_report --seed 42 --out results` — run and write artifacts;
//! * `profile_report --against results/bench_baseline.json` — compare
//!   the `gate` leaves against the committed baseline's `profile_doc`
//!   section ([`horse_bench::gate`]) and exit non-zero beyond ±10 % (the
//!   CI profile gate);
//! * `profile_report --write-baseline` — merge this seed's
//!   `profile_doc` section into the committed baseline, preserving the
//!   sections other binaries own;
//! * `profile_report --inflate-allocs 32 --against ...` — perform 32
//!   extra heap allocations per warm invoke, which MUST trip the gate
//!   (CI runs this as the gate's negative test);
//! * `profile_report --inflate-locks 8 --against ...` — perform 8 extra
//!   timed lock acquisitions per invoke at the `pool_doomed_list` site —
//!   what the unconditional 8-shard doomed drain inside every pool take
//!   cost until PR 14 — which MUST trip the gate's
//!   `lock_acquisitions_per_warm_invoke` leaf (CI's second negative
//!   test).

use std::collections::BTreeMap;

use horse_bench::gate::{git_sha, num, obj, write_json, GateOptions};
use horse_faas::{Cluster, DispatchPolicy, HostId, PlatformConfig, StartStrategy};
use horse_metrics::Histogram;
use horse_telemetry::alloc::PhaseAllocStats;
use horse_telemetry::contention::{self, ContentionSite, SiteStats};
use horse_telemetry::json::JsonValue;
use horse_telemetry::{profiling, CountingAlloc, Recorder};
use horse_vmm::{SandboxConfig, SplicePool};
use horse_workloads::Category;

/// The whole point of this binary: every allocation in the process goes
/// through the counting allocator (a single relaxed load + fall-through
/// to the system allocator while profiling is disabled).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SCHEMA_PROFILE: &str = "horse-bench/profile/1";

/// Nominal cost charged per timed-lock acquisition when computing the
/// deterministic `gate.lock_wait_ns` leaf (an uncontended parking_lot
/// acquire is on this order). The *measured* wall-clock waits are
/// exported in the `.prom` page instead.
const NOMINAL_ACQUIRE_NS: u64 = 25;

/// Warm (vanilla resume) invocations of the measured loop — the
/// denominator of `gate.allocs_per_warm_invoke`.
const WARM_ROUNDS: usize = 200;
/// HORSE invocations exercising pause/plan/resume/splice/coalesce
/// phases.
const HORSE_ROUNDS: usize = 200;
/// Unmeasured invocations before the measured warm loop. The first few
/// invocations on a fresh host fill the scratch-buffer pools (plan
/// buffers, register/page scratch) that the steady state then recycles
/// forever; the zero-alloc gate is a *steady-state* claim, so those
/// one-time pool fills run before the measured window opens.
const WARMUP_ROUNDS: usize = 16;

/// `profile_report`'s own flags (the shared four are [`GateOptions`]).
struct Options {
    inflate_allocs: u64,
    inflate_locks: u64,
    gate_zero_alloc: bool,
}

const USAGE: &str = "usage: profile_report [--seed <u64>] [--out <dir>] \
     [--against <baseline.json>] [--write-baseline] [--inflate-allocs <u64>] \
     [--inflate-locks <u64>] [--gate-zero-alloc]";

impl Options {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<(GateOptions, Self), String> {
        let mut opts = Options {
            inflate_allocs: 0,
            inflate_locks: 0,
            gate_zero_alloc: false,
        };
        let gate = GateOptions::parse(args, USAGE, |flag, value| {
            match flag {
                "--inflate-allocs" => opts.inflate_allocs = value.parsed()?,
                "--inflate-locks" => opts.inflate_locks = value.parsed()?,
                "--gate-zero-alloc" => opts.gate_zero_alloc = true,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok((gate, opts))
    }
}

/// Everything one measured soak produces.
struct SoakResult {
    /// Total allocations observed during the warm loop (all phases).
    warm_allocs: u64,
    /// Per-phase allocation profile at the end of the soak.
    alloc: Vec<PhaseAllocStats>,
    /// Per-site contention profile at the end of the soak.
    contention: Vec<SiteStats>,
    /// Gauge state at drain (carries the per-shard pool occupancy).
    gauges: Vec<(&'static str, u64)>,
    snapshot: horse_telemetry::TraceSnapshot,
    /// Virtual (cost-model) latency of the warm and horse loops —
    /// deterministic, used for the bit-identity check.
    virt_init: Histogram,
    virt_total: Histogram,
}

/// Runs the seeded single-driver soak. With `profiled`, the counting
/// allocator and contention counters are live (and reset first); the
/// virtual-latency results must be identical either way.
fn soak(seed: u64, opts: &Options, profiled: bool) -> SoakResult {
    let Options {
        inflate_allocs,
        inflate_locks,
        ..
    } = *opts;
    // The lock gate's negative self-test: deliberately take timed locks
    // per invoke so `lock_acquisitions_per_warm_invoke` provably moves.
    let decoy = std::sync::Mutex::new(());
    let take_extra_locks = || {
        for _ in 0..inflate_locks {
            drop(contention::timed(ContentionSite::PoolDoomedList, || {
                decoy.lock()
            }));
        }
    };
    if profiled {
        profiling::reset();
    }
    profiling::set_enabled(profiled);

    let mut cluster = Cluster::with_config(
        3,
        DispatchPolicy::RoundRobin,
        seed,
        PlatformConfig::default(),
    );
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
    recorder.drain(); // provisioning is untracked noise: keep it out

    let mut virt_init = Histogram::new();
    let mut virt_total = Histogram::new();

    for _ in 0..WARMUP_ROUNDS {
        cluster
            .invoke(warm_fn, StartStrategy::Warm)
            .expect("warm-up invoke");
        cluster
            .invoke(horse_fn, StartStrategy::Horse)
            .expect("warm-up invoke");
    }

    let allocs_before = total_allocs();
    for _ in 0..WARM_ROUNDS {
        let (_, record) = cluster
            .invoke(warm_fn, StartStrategy::Warm)
            .expect("warm invoke");
        virt_init.record(record.init_ns);
        virt_total.record(record.total_ns());
        // The gate's negative self-test: deliberately allocate per
        // invoke so `allocs_per_warm_invoke` provably moves.
        for _ in 0..inflate_allocs {
            std::hint::black_box(vec![0u8; 256]);
        }
        take_extra_locks();
    }
    let warm_allocs = total_allocs() - allocs_before;

    for _ in 0..HORSE_ROUNDS {
        let (_, record) = cluster
            .invoke(horse_fn, StartStrategy::Horse)
            .expect("horse invoke");
        virt_init.record(record.init_ns);
        virt_total.record(record.total_ns());
        take_extra_locks();
    }
    let snapshot = recorder.drain();

    let result = SoakResult {
        warm_allocs,
        alloc: horse_telemetry::alloc::snapshot(),
        contention: horse_telemetry::contention::snapshot(),
        gauges: snapshot.gauges.clone(),
        snapshot,
        virt_init,
        virt_total,
    };
    profiling::set_enabled(false);
    result
}

/// Allocations per steady-state HORSE invoke (pause-time plan build,
/// splice resume, plan maintenance of the other paused sandboxes) on a
/// fresh fleet whose hosts splice on `pool()`. Kept out of [`soak`]: its
/// lock acquisitions would move the baseline's `gate.lock_wait_ns`. The
/// allocation table is process-wide, so a parallel pool's worker
/// threads are counted too.
fn horse_allocs_per_invoke(seed: u64, pool: fn() -> SplicePool) -> f64 {
    let mut cluster = Cluster::with_config(
        3,
        DispatchPolicy::RoundRobin,
        seed,
        PlatformConfig::default(),
    );
    cluster.set_recorder(Recorder::enabled());
    let ull = SandboxConfig::builder().vcpus(2).ull(true).build().unwrap();
    let horse_fn = cluster.register("filter", Category::Cat3, ull);
    cluster
        .provision_all(horse_fn, 2, StartStrategy::Horse)
        .expect("provision horse pool");
    for host in 0..cluster.len() {
        cluster.host(HostId(host)).vmm().set_splice_pool(pool());
    }
    let invoke = |cluster: &Cluster| {
        cluster
            .invoke(horse_fn, StartStrategy::Horse)
            .expect("horse invoke");
    };
    for _ in 0..WARMUP_ROUNDS {
        invoke(&cluster);
    }
    profiling::set_enabled(true);
    let allocs_before = total_allocs();
    for _ in 0..HORSE_ROUNDS {
        invoke(&cluster);
    }
    let allocs = total_allocs() - allocs_before;
    profiling::set_enabled(false);
    allocs as f64 / HORSE_ROUNDS as f64
}

/// Allocations observed so far, summed across every phase (including
/// untracked) — zero while profiling is disabled. Reads the counters
/// without allocating, so the probe never counts itself.
fn total_allocs() -> u64 {
    horse_telemetry::alloc::total_allocs()
}

/// The deterministic sections of `BENCH_profile.json` (everything the
/// baseline stores).
fn deterministic_sections(r: &SoakResult) -> Vec<(String, JsonValue)> {
    let total_invocations = (WARM_ROUNDS + HORSE_ROUNDS) as f64;

    let lock_acquisitions: u64 = r.contention.iter().map(|s| s.acquisitions).sum();
    let gate = obj(vec![
        (
            "allocs_per_warm_invoke".into(),
            num(r.warm_allocs as f64 / WARM_ROUNDS as f64),
        ),
        (
            "lock_wait_ns".into(),
            num((lock_acquisitions * NOMINAL_ACQUIRE_NS) as f64),
        ),
        // Every timed acquisition of the soak (provisioning and warm-up
        // included) over its measured invocations: 1.11 when an invoke
        // takes its host's `Mutex<Vmm>` and nothing else.
        (
            "lock_acquisitions_per_warm_invoke".into(),
            num(lock_acquisitions as f64 / total_invocations),
        ),
    ]);

    let mut phases = BTreeMap::new();
    for s in &r.alloc {
        phases.insert(
            s.phase.name().to_string(),
            obj(vec![
                ("allocs".into(), num(s.allocs as f64)),
                ("bytes".into(), num(s.bytes_allocated as f64)),
                (
                    "allocs_per_invoke".into(),
                    num(s.allocs as f64 / total_invocations),
                ),
                (
                    "bytes_per_invoke".into(),
                    num(s.bytes_allocated as f64 / total_invocations),
                ),
                // Pool-recycled buffers: hot-path work the phase served
                // *without* touching the heap. The complement of
                // `allocs` — a zero-alloc steady state shows recycles
                // climbing while allocs stays flat.
                ("recycles".into(), num(s.recycles as f64)),
                (
                    "recycles_per_invoke".into(),
                    num(s.recycles as f64 / total_invocations),
                ),
            ]),
        );
    }

    let mut sites = BTreeMap::new();
    for s in &r.contention {
        sites.insert(
            s.site.name().to_string(),
            obj(vec![
                ("acquisitions".into(), num(s.acquisitions as f64)),
                ("cas_retries".into(), num(s.cas_retries as f64)),
                (
                    "cas_retries_per_invoke".into(),
                    num(s.cas_retries as f64 / total_invocations),
                ),
                (
                    "nominal_wait_ns".into(),
                    num((s.acquisitions * NOMINAL_ACQUIRE_NS) as f64),
                ),
            ]),
        );
    }

    let mut pool_shards = BTreeMap::new();
    for (name, value) in &r.gauges {
        if name.starts_with("pool_shard") {
            pool_shards.insert(name.to_string(), num(*value as f64));
        }
    }

    vec![
        ("gate".to_string(), gate),
        ("phases".to_string(), JsonValue::Object(phases)),
        ("sites".to_string(), JsonValue::Object(sites)),
        ("pool_shards".to_string(), JsonValue::Object(pool_shards)),
        (
            "invocations".to_string(),
            obj(vec![
                ("warm".into(), num(WARM_ROUNDS as f64)),
                ("horse".into(), num(HORSE_ROUNDS as f64)),
            ]),
        ),
    ]
}

/// Virtual-latency fingerprint used by the determinism and bit-identity
/// checks: exact percentiles of the cost-model latencies.
fn virt_fingerprint(r: &SoakResult) -> Vec<u64> {
    [&r.virt_init, &r.virt_total]
        .iter()
        .flat_map(|h| {
            [50.0, 99.0, 99.9, 100.0]
                .iter()
                .map(|&p| h.percentile(p))
                .collect::<Vec<_>>()
        })
        .collect()
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

    // Run 1 + 2 (profiled): the determinism self-check. Every gated
    // number must reproduce exactly — the gate is only sound if the
    // measurement is.
    let first = soak(gate.seed, &opts, true);
    let second = soak(gate.seed, &opts, true);
    let first_sections = obj(deterministic_sections(&first));
    let second_sections = obj(deterministic_sections(&second));
    if first_sections.render() != second_sections.render() {
        eprintln!("profile_report: two identical profiled soaks disagree — measurement is not");
        eprintln!("deterministic; refusing to write a gate baseline from noise");
        std::process::exit(1);
    }
    if virt_fingerprint(&first) != virt_fingerprint(&second) {
        eprintln!("profile_report: virtual latencies differ across identical profiled soaks");
        std::process::exit(1);
    }

    // Run 3 (unprofiled): profiling must be observation-only — the
    // virtual results of the pipeline are bit-identical either way.
    let unprofiled = soak(gate.seed, &opts, false);
    let bit_identical = virt_fingerprint(&unprofiled) == virt_fingerprint(&first);
    if !bit_identical {
        eprintln!("profile_report: enabling profiling changed virtual latencies — the plane");
        eprintln!("is supposed to observe the pipeline, not perturb it");
        std::process::exit(1);
    }

    let mut doc_entries = vec![
        (
            "schema".to_string(),
            JsonValue::String(SCHEMA_PROFILE.into()),
        ),
        ("git_sha".to_string(), JsonValue::String(sha.clone())),
        ("seed".to_string(), num(gate.seed as f64)),
        (
            "inflate_allocs".to_string(),
            num(opts.inflate_allocs as f64),
        ),
        ("inflate_locks".to_string(), num(opts.inflate_locks as f64)),
        (
            "checks".to_string(),
            obj(vec![
                ("deterministic".into(), JsonValue::Bool(true)),
                ("bit_identical_virtual".into(), JsonValue::Bool(true)),
            ]),
        ),
    ];
    doc_entries.extend(deterministic_sections(&first));
    // The three steady-state paths `--gate-zero-alloc` holds to zero.
    let zero_alloc = [
        ("warm", first.warm_allocs as f64 / WARM_ROUNDS as f64),
        (
            "horse",
            horse_allocs_per_invoke(gate.seed, SplicePool::inline),
        ),
        (
            "horse_parallel2",
            horse_allocs_per_invoke(gate.seed, || SplicePool::parallel(2)),
        ),
    ];
    doc_entries.push((
        "zero_alloc".to_string(),
        obj(zero_alloc
            .iter()
            .map(|(path, allocs)| (format!("allocs_per_{path}_invoke"), num(*allocs)))
            .collect()),
    ));
    let doc = obj(doc_entries);

    let json_path = format!("{}/BENCH_profile.json", gate.out);
    write_json(&json_path, &doc);
    let prom_path = format!("{}/BENCH_profile.prom", gate.out);
    horse_metrics::export::write_prometheus_page(
        &prom_path,
        &first.snapshot,
        &first.alloc,
        &first.contention,
    )
    .expect("write prometheus page");

    println!(
        "{json_path}: {SCHEMA_PROFILE} (sha {sha}, seed {})",
        gate.seed
    );
    println!("{prom_path}: Prometheus text-format page");
    if let Some(JsonValue::Object(gate)) = doc.get("gate") {
        for (leaf, v) in gate {
            if let JsonValue::Number(v) = v {
                println!("  gate.{leaf} = {v:.2}");
            }
        }
    }

    // The exact-zero gate: the steady-state warm and HORSE paths recycle
    // every buffer they touch — the HORSE path with the splice executed
    // inline or handed to two parked workers alike — so *any* heap
    // allocation per invoke is a regression: no noise band, each leaf
    // must be 0.0.
    for (path, allocs) in zero_alloc {
        println!("  zero_alloc.allocs_per_{path}_invoke = {allocs:.2}");
    }
    if opts.gate_zero_alloc {
        for (path, allocs) in zero_alloc {
            if allocs != 0.0 {
                eprintln!(
                    "zero-alloc gate FAILED: zero_alloc.allocs_per_{path}_invoke = {allocs:.2} \
                     (the steady-state {path} path must not allocate)"
                );
                std::process::exit(1);
            }
        }
        println!("zero-alloc gate: 0 allocations per warm, horse and horse_parallel2 invoke");
    }

    // The baseline stores (and gates on) the deterministic sections only.
    if !gate.settle(&obj(vec![("profile_doc".to_string(), first_sections)])) {
        std::process::exit(1);
    }
}
