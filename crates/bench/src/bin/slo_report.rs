//! SLO soak: the end-to-end reliability plane under churn, with a CI
//! gate.
//!
//! Drives 12 000+ seeded requests (uLL-class HORSE starts with tight
//! deadlines, background warm starts, periodic 64-wide background
//! bursts) through [`Cluster::submit`] / [`Cluster::submit_batch`]
//! against a 6-host fleet with one chronically sick host and a seeded
//! join/leave/crash churn schedule, then emits `BENCH_slo.json` (and a
//! Prometheus text page) with the run's reliability ledger:
//!
//! * per-class SLO attainment (deadline-met over *submissions*, so
//!   sheds and failures count against it — an all-shedding fleet cannot
//!   hide behind an empty completions denominator),
//! * hedge rate / hedge wins, shed rate by reason, retry volume,
//! * circuit-breaker transition counts (opened / half-opened / closed),
//! * churn events applied and fleet size at the end.
//!
//! Hard gates (exit non-zero): the conservation invariant
//! (`submissions == completions + sheds + deadline_misses + failures`),
//! bit-identical replay (the soak runs twice; every deterministic
//! section, the disposition-stream fingerprint and the stitched
//! forensic-forest fingerprint must match), ≥10 000 submissions, uLL
//! attainment ≥ 99.9 % *with churn on*, a hedge rate below 5 %,
//! forensic completeness (every submission stitches into exactly one
//! orphan-free span tree whose root stamp tallies reconcile with the
//! reliability ledger) and a quiet multi-window SLO burn-rate monitor.
//!
//! Forensic artifacts (always written): `BENCH_forensics.json` (stitch
//! ledger, burn-rate windows, flight-recorder summary) and
//! `BENCH_forensics.trace.json` (the worst span trees per class as
//! Chrome trace events with flow arrows, loadable in Perfetto). The
//! worst uLL tree is also printed as an ASCII postmortem outline.
//!
//! Modes:
//!
//! * `slo_report --seed 42 --out results` — run and write artifacts;
//! * `slo_report --against results/bench_baseline.json` — additionally
//!   compare the `gate` leaves against the committed baseline's
//!   `slo_doc` section ([`horse_bench::gate`]: ±10 % relative band);
//! * `slo_report --write-baseline` — merge this seed's `slo_doc`
//!   section into the baseline, preserving sections other binaries own;
//! * `slo_report --no-churn` — static fleet (used by the CI matrix to
//!   show the plane is not *relying* on churn-driven resets);
//! * `slo_report --force-open-breakers` — every breaker starts and
//!   stays open; the run MUST fail the attainment gate (CI runs this as
//!   the negative self-test);
//! * `slo_report --slowdown-splice <factor>` — scale the 𝒫²𝒮ℳ splice
//!   path by `factor`; at CI's factor 2000 the injected latency
//!   regression MUST trip both the attainment gate and the burn-rate
//!   monitor (the forensics negative self-test).

use std::collections::BTreeMap;

use horse_bench::gate::{cost_model, git_sha, num, obj, write_json, GateOptions};
use horse_faas::{
    Cluster, DispatchPolicy, Disposition, FunctionId, HostId, PlatformConfig, Request,
    StartStrategy,
};
use horse_faults::{FaultInjector, FaultPlan, FaultSite, FaultTrigger, RetryPolicy};
use horse_metrics::prometheus::TextExporter;
use horse_metrics::{BurnRateMonitor, FlightRecorder, Objective};
use horse_reliability::{
    BreakerState, ChurnConfig, ChurnSchedule, ReliabilityConfig, RequestClass, ShedReason,
};
use horse_sim::rng::SeedFactory;
use horse_telemetry::forensics::{outcome, ForensicIndex};
use horse_telemetry::json::JsonValue;
use horse_telemetry::{Recorder, TelemetryConfig};
use horse_vmm::SandboxConfig;
use horse_workloads::Category;
use rand::rngs::StdRng;
use rand::Rng;

const SCHEMA_SLO: &str = "horse-bench/slo/1";
const SCHEMA_FORENSICS: &str = "horse-bench/forensics/1";

const HOSTS: usize = 6;
/// The soak stops at the first round boundary past this many
/// submissions (the acceptance floor is 10 000).
const TARGET_SUBMISSIONS: u64 = 12_000;
/// Background burst width (vs `max_inflight` 32 / `ull_reserve` 8: the
/// burst must overflow the background share and shed the rest).
const BURST: usize = 64;
/// One burst every this many single submissions.
const BURST_EVERY: u64 = 512;
/// Warm entries provisioned per host per function up front and restored
/// on rejoin.
const PROVISION: usize = 6;
/// Top-up cadence: one entry per host per function.
const REPLENISH_EVERY: u64 = 32;
/// uLL-class end-to-end deadline (virtual ns). Cat3 service time is
/// ~1 µs; the headroom absorbs cross-host retry backoffs.
const ULL_DEADLINE_NS: u64 = 100_000;
/// Background deadline when one is attached at all.
const BG_DEADLINE_NS: u64 = 50_000_000;

/// Gate floors/ceilings (hard, not baseline-relative).
const ULL_ATTAINMENT_FLOOR: f64 = 0.999;
const HEDGE_RATE_CEILING: f64 = 0.05;

/// SLO targets the burn-rate monitor alerts on (uLL mirrors the
/// attainment floor; background is looser, matching its soft deadline).
const OBJECTIVES: [Objective; 2] = [
    Objective {
        class: "ull",
        target: 0.999,
    },
    Objective {
        class: "background",
        target: 0.95,
    },
];

/// `slo_report`'s own flags (the shared four are [`GateOptions`]).
struct Options {
    churn: bool,
    force_open: bool,
    slowdown_splice: f64,
}

const USAGE: &str = "usage: slo_report [--seed <u64>] [--out <dir>] \
     [--against <baseline.json>] [--write-baseline] [--no-churn] \
     [--force-open-breakers] [--slowdown-splice <factor>]";

impl Options {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<(GateOptions, Self), String> {
        let mut opts = Options {
            churn: true,
            force_open: false,
            slowdown_splice: 1.0,
        };
        let gate = GateOptions::parse(args, USAGE, |flag, value| {
            match flag {
                "--no-churn" => opts.churn = false,
                "--force-open-breakers" => opts.force_open = true,
                "--slowdown-splice" => opts.slowdown_splice = value.parsed()?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok((gate, opts))
    }
}

/// Per-class external ledger, built from returned dispositions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ClassTally {
    submissions: u64,
    completions: u64,
    met_deadline: u64,
    hedged: u64,
    sheds: u64,
    deadline_misses: u64,
    failures: u64,
}

impl ClassTally {
    fn observe(&mut self, d: &Disposition) {
        self.submissions += 1;
        match d {
            Disposition::Completed {
                met_deadline,
                hedged,
                ..
            } => {
                self.completions += 1;
                if *met_deadline {
                    self.met_deadline += 1;
                }
                if *hedged {
                    self.hedged += 1;
                }
            }
            Disposition::Shed { .. } => self.sheds += 1,
            Disposition::DeadlineExceeded { .. } => self.deadline_misses += 1,
            Disposition::Failed { .. } => self.failures += 1,
        }
    }

    /// Deadline-met completions over *submissions*: sheds, failures and
    /// misses all count against attainment.
    fn attainment(&self) -> f64 {
        if self.submissions == 0 {
            return 1.0;
        }
        self.met_deadline as f64 / self.submissions as f64
    }
}

struct SoakResult {
    ull: ClassTally,
    background: ClassTally,
    sheds_by_reason: BTreeMap<&'static str, u64>,
    internal: horse_reliability::StatsSnapshot,
    transitions: (u64, u64, u64),
    breaker_states: Vec<((u64, usize), BreakerState)>,
    churn_applied: u64,
    churn_skipped: u64,
    hosts_alive: usize,
    fingerprint: u64,
    snapshot: horse_telemetry::TraceSnapshot,
}

fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fold_disposition(hash: u64, d: &Disposition) -> u64 {
    match d {
        Disposition::Completed {
            host,
            latency_ns,
            hedged,
            met_deadline,
            ..
        } => {
            let tags = 1u64 | (u64::from(*hedged) << 8) | (u64::from(*met_deadline) << 9);
            fnv1a(fnv1a(fnv1a(hash, tags), host.0 as u64), *latency_ns)
        }
        Disposition::Shed { reason } => fnv1a(hash, 2 | ((*reason as u64) << 8)),
        Disposition::DeadlineExceeded { observed_ns, .. } => fnv1a(fnv1a(hash, 3), *observed_ns),
        Disposition::Failed { .. } => fnv1a(hash, 4),
    }
}

fn shed_reason(d: &Disposition) -> Option<ShedReason> {
    match d {
        Disposition::Shed { reason } => Some(*reason),
        _ => None,
    }
}

fn ull_request(f: FunctionId) -> Request {
    Request {
        function: f,
        strategy: StartStrategy::Horse,
        class: RequestClass::Ull,
        deadline_ns: Some(ULL_DEADLINE_NS),
    }
}

fn bg_request(f: FunctionId, rng: &mut StdRng) -> Request {
    Request {
        function: f,
        strategy: StartStrategy::Warm,
        class: RequestClass::Background,
        deadline_ns: if rng.gen_bool(0.5) {
            Some(BG_DEADLINE_NS)
        } else {
            None
        },
    }
}

fn soak(seed: u64, churn: bool, force_open: bool, slowdown_splice: f64) -> SoakResult {
    let mut cluster = Cluster::with_config(
        HOSTS,
        DispatchPolicy::RoundRobin,
        seed,
        PlatformConfig {
            cost: cost_model(slowdown_splice),
            seed,
            ..PlatformConfig::default()
        },
    );
    // One shard so the single-threaded soak cannot overflow a ring
    // shard: forensic stitching gates on a lossless stream.
    let recorder = Recorder::new(TelemetryConfig {
        shards: 1,
        capacity_per_shard: 1 << 20,
    });
    cluster.set_recorder(recorder.clone());

    let ull_cfg = SandboxConfig::builder().vcpus(1).ull(true).build().unwrap();
    let bg_cfg = SandboxConfig::builder().vcpus(2).build().unwrap();
    let ull_fn = cluster.register("filter", Category::Cat3, ull_cfg);
    let bg_fn = cluster.register("nat", Category::Cat2, bg_cfg);

    let mut rel = ReliabilityConfig::with_seed(seed);
    rel.breaker.forced_open = force_open;
    cluster.set_reliability(rel);

    // Host 0 is chronically sick: every third pool take rots in its
    // hands and it performs no local recovery — the breaker and the
    // cluster-level retry own the problem.
    cluster.set_host_injector(
        HostId(0),
        FaultInjector::new(
            seed ^ 0x51C4,
            FaultPlan::new().with(FaultSite::PoolEntryInvalid, FaultTrigger::Nth(3)),
        ),
    );
    cluster.set_host_retry_policy(
        HostId(0),
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
    );

    for (f, strat) in [(ull_fn, StartStrategy::Horse), (bg_fn, StartStrategy::Warm)] {
        cluster
            .provision_all(f, PROVISION, strat)
            .expect("initial provisioning on a healthy fleet");
    }

    let factory = SeedFactory::new(seed);
    let mut rng = factory.stream("bench/slo-report");
    let schedule = if churn {
        ChurnSchedule::generate(
            &factory,
            HOSTS,
            &ChurnConfig {
                period: 700,
                events: 12,
                min_alive: 3,
            },
        )
    } else {
        ChurnSchedule::empty()
    };
    let rejoin_warm = [
        (ull_fn, StartStrategy::Horse, PROVISION),
        (bg_fn, StartStrategy::Warm, PROVISION),
    ];

    let mut ull = ClassTally::default();
    let mut background = ClassTally::default();
    let mut sheds_by_reason: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
    let mut churn_applied = 0u64;
    let mut churn_skipped = 0u64;
    let mut churn_cursor = 0usize;
    let mut submitted = 0u64;
    let mut round = 0u64;

    let mut observe = |class: RequestClass, d: &Disposition| {
        match class {
            RequestClass::Ull => ull.observe(d),
            RequestClass::Background => background.observe(d),
        }
        if let Some(reason) = shed_reason(d) {
            *sheds_by_reason.entry(reason.label()).or_default() += 1;
        }
        fingerprint = fold_disposition(fingerprint, d);
    };

    while submitted < TARGET_SUBMISSIONS {
        for event in schedule.due(&mut churn_cursor, submitted) {
            // Rebalance-on-leave can fail if a survivor's pool is at
            // capacity; the event is then skipped, identically per seed.
            match cluster.apply_churn(event, &rejoin_warm) {
                Ok(true) => churn_applied += 1,
                Ok(false) => {}
                Err(_) => churn_skipped += 1,
            }
        }
        if round % REPLENISH_EVERY == 0 {
            for h in 0..HOSTS {
                let _ = cluster.provision_on(HostId(h), ull_fn, 1, StartStrategy::Horse);
                let _ = cluster.provision_on(HostId(h), bg_fn, 1, StartStrategy::Warm);
            }
        }
        if round % BURST_EVERY == BURST_EVERY - 1 {
            // A background storm: one batch admission decision across 64
            // requests. The reserve must hold the line.
            let batch: Vec<Request> = (0..BURST).map(|_| bg_request(bg_fn, &mut rng)).collect();
            let dispositions = cluster.submit_batch(&batch);
            for d in &dispositions {
                observe(RequestClass::Background, d);
            }
            submitted += BURST as u64;
        } else {
            let req = if rng.gen_bool(0.8) {
                ull_request(ull_fn)
            } else {
                bg_request(bg_fn, &mut rng)
            };
            let d = cluster.submit(req);
            observe(req.class, &d);
            submitted += 1;
        }
        round += 1;
    }

    SoakResult {
        ull,
        background,
        sheds_by_reason,
        internal: cluster.reliability_snapshot(),
        transitions: cluster.breaker_transitions(),
        breaker_states: cluster.breaker_states(),
        churn_applied,
        churn_skipped,
        hosts_alive: cluster.alive_count(),
        fingerprint,
        snapshot: recorder.drain(),
    }
}

fn class_section(t: &ClassTally) -> JsonValue {
    obj(vec![
        ("submissions".into(), num(t.submissions as f64)),
        ("completions".into(), num(t.completions as f64)),
        ("met_deadline".into(), num(t.met_deadline as f64)),
        ("hedged".into(), num(t.hedged as f64)),
        ("sheds".into(), num(t.sheds as f64)),
        ("deadline_misses".into(), num(t.deadline_misses as f64)),
        ("failures".into(), num(t.failures as f64)),
        ("attainment".into(), num(t.attainment())),
    ])
}

/// The deterministic sections of `BENCH_slo.json` (everything the
/// baseline stores).
fn deterministic_sections(r: &SoakResult) -> Vec<(String, JsonValue)> {
    let snap = &r.internal;
    let submissions = snap.submissions.max(1) as f64;
    let gate = obj(vec![
        ("ull_attainment".into(), num(r.ull.attainment())),
        (
            "hedge_rate".into(),
            num(snap.hedges_launched as f64 / submissions),
        ),
        ("shed_rate".into(), num(snap.sheds as f64 / submissions)),
        ("retries".into(), num(snap.retries as f64)),
        ("breaker_opened".into(), num(r.transitions.0 as f64)),
    ]);
    let mut sheds = BTreeMap::new();
    for (reason, count) in &r.sheds_by_reason {
        sheds.insert(reason.to_string(), num(*count as f64));
    }
    vec![
        ("gate".to_string(), gate),
        ("ull".to_string(), class_section(&r.ull)),
        ("background".to_string(), class_section(&r.background)),
        ("sheds_by_reason".to_string(), JsonValue::Object(sheds)),
        (
            "plane".to_string(),
            obj(vec![
                ("submissions".into(), num(snap.submissions as f64)),
                ("completions".into(), num(snap.completions as f64)),
                ("sheds".into(), num(snap.sheds as f64)),
                ("deadline_misses".into(), num(snap.deadline_misses as f64)),
                ("failures".into(), num(snap.failures as f64)),
                ("retries".into(), num(snap.retries as f64)),
                ("hedges_launched".into(), num(snap.hedges_launched as f64)),
                ("hedge_wins".into(), num(snap.hedge_wins as f64)),
            ]),
        ),
        (
            "breaker".to_string(),
            obj(vec![
                ("opened".into(), num(r.transitions.0 as f64)),
                ("half_opened".into(), num(r.transitions.1 as f64)),
                ("closed".into(), num(r.transitions.2 as f64)),
            ]),
        ),
        (
            "churn".to_string(),
            obj(vec![
                ("events_applied".into(), num(r.churn_applied as f64)),
                ("events_skipped".into(), num(r.churn_skipped as f64)),
                ("hosts_alive_end".into(), num(r.hosts_alive as f64)),
            ]),
        ),
    ]
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
    println!(
        "slo soak: {TARGET_SUBMISSIONS}+ submissions, {HOSTS} hosts, seed {}, churn {}, \
         forced-open {}",
        gate.seed,
        if opts.churn { "on" } else { "off" },
        opts.force_open
    );

    let mut failed = false;

    // The soak runs twice: the reliability plane promises bit-identical
    // replay per seed, and the gate is only sound if it delivers.
    let run_a = soak(gate.seed, opts.churn, opts.force_open, opts.slowdown_splice);
    let run_b = soak(gate.seed, opts.churn, opts.force_open, opts.slowdown_splice);
    let forensics_a = ForensicIndex::stitch(&run_a.snapshot);
    let forensics_b = ForensicIndex::stitch(&run_b.snapshot);
    let sections_a = obj(deterministic_sections(&run_a));
    let sections_b = obj(deterministic_sections(&run_b));
    if sections_a.render() == sections_b.render()
        && run_a.fingerprint == run_b.fingerprint
        && forensics_a.fingerprint() == forensics_b.fingerprint()
    {
        println!(
            "determinism: OK — two seed-{} runs, identical books, disposition fingerprint \
             {:#018x}, forensic fingerprint {:#018x}",
            gate.seed,
            run_a.fingerprint,
            forensics_a.fingerprint()
        );
    } else {
        println!("determinism: FAILED — same-seed runs diverge");
        failed = true;
    }

    let snap = &run_a.internal;
    if snap.conserves() && snap.hedges_consistent() {
        println!(
            "conservation: OK — {} submissions == {} completions + {} sheds + {} deadline \
             misses + {} failures",
            snap.submissions, snap.completions, snap.sheds, snap.deadline_misses, snap.failures
        );
    } else {
        println!(
            "conservation: FAILED — {} submissions vs {} + {} + {} + {} (hedges {} wins / {} \
             launched)",
            snap.submissions,
            snap.completions,
            snap.sheds,
            snap.deadline_misses,
            snap.failures,
            snap.hedge_wins,
            snap.hedges_launched
        );
        failed = true;
    }
    if snap.submissions < 10_000 {
        println!(
            "volume: FAILED — only {} submissions (<10k)",
            snap.submissions
        );
        failed = true;
    }

    // Forensic completeness: every submission (sheds included) must
    // stitch into exactly one orphan-free Submit-rooted span tree, and
    // the root stamps must retell the ledger exactly.
    let tree_count = forensics_a.submission_trees().count() as u64;
    let mut stamp_tally = [0u64; 4]; // completed / shed / deadline / failed
    let mut stamp_violations = 0u64;
    for tree in forensics_a.submission_trees() {
        let stamp = tree.stamp().expect("submission trees carry a stamp");
        if usize::from(stamp.outcome) < stamp_tally.len() {
            stamp_tally[usize::from(stamp.outcome)] += 1;
        }
        stamp_violations += tree.check().len() as u64;
    }
    let ledger_consistent = stamp_tally[usize::from(outcome::COMPLETED)] == snap.completions
        && stamp_tally[usize::from(outcome::SHED)] == snap.sheds
        && stamp_tally[usize::from(outcome::DEADLINE)] == snap.deadline_misses
        && stamp_tally[usize::from(outcome::FAILED)] == snap.failures;
    let forensics_complete = forensics_a.is_complete()
        && tree_count == snap.submissions
        && forensics_a.trees.len() as u64 == tree_count
        && stamp_violations == 0
        && ledger_consistent;
    if forensics_complete {
        println!(
            "forensics: OK — {tree_count} span trees (one per submission), 0 orphans, 0 extra \
             roots, 0 ring drops; stamp tallies match the ledger"
        );
    } else {
        println!(
            "forensics: FAILED — {tree_count} trees for {} submissions, {} orphans, {} extra \
             roots, {} drops, {stamp_violations} structural violations, ledger consistent: \
             {ledger_consistent}",
            snap.submissions,
            forensics_a.orphan_events,
            forensics_a.extra_roots,
            forensics_a.dropped_events
        );
        failed = true;
    }

    // Multi-window SLO burn rate, replayed from the stitched trees in
    // arrival order on the virtual clock. Sheds are admission policy,
    // not latency, and are excluded — they already gate attainment.
    let mut monitor = BurnRateMonitor::new(&OBJECTIVES);
    for tree in forensics_a.submission_trees() {
        let stamp = tree.stamp().expect("submission trees carry a stamp");
        if stamp.outcome == outcome::SHED {
            continue;
        }
        let good = stamp.outcome == outcome::COMPLETED && stamp.met_deadline;
        monitor.observe(
            stamp.class_label(),
            good,
            tree.invocation,
            tree.duration_ns(),
        );
    }
    let alerts = monitor.alerts();
    if alerts.is_empty() {
        let rates: Vec<String> = monitor
            .burn_rates()
            .iter()
            .map(|(class, short, long, _)| format!("{class} {short:.2}x/{long:.2}x"))
            .collect();
        println!(
            "burn-rate: OK — quiet on both windows ({})",
            rates.join(", ")
        );
    } else {
        for alert in &alerts {
            println!("{}", alert.render());
        }
        failed = true;
    }

    // Flight recorder: the worst trees per class, kept for the
    // postmortem artifacts below.
    let mut flight = FlightRecorder::new();
    for tree in forensics_a.submission_trees() {
        flight.record(tree);
    }

    let ull_attainment = run_a.ull.attainment();
    if ull_attainment >= ULL_ATTAINMENT_FLOOR {
        println!(
            "uLL SLO: OK — {:.4} % attainment over {} submissions (floor {:.1} %)",
            100.0 * ull_attainment,
            run_a.ull.submissions,
            100.0 * ULL_ATTAINMENT_FLOOR
        );
    } else {
        println!(
            "uLL SLO: FAILED — {:.4} % attainment over {} submissions (floor {:.1} %)",
            100.0 * ull_attainment,
            run_a.ull.submissions,
            100.0 * ULL_ATTAINMENT_FLOOR
        );
        failed = true;
    }

    let hedge_rate = snap.hedges_launched as f64 / snap.submissions.max(1) as f64;
    if hedge_rate < HEDGE_RATE_CEILING {
        println!(
            "hedging: OK — {:.2} % of submissions hedged ({} launched, {} won), below the \
             {:.0} % ceiling",
            100.0 * hedge_rate,
            snap.hedges_launched,
            snap.hedge_wins,
            100.0 * HEDGE_RATE_CEILING
        );
    } else {
        println!(
            "hedging: FAILED — {:.2} % of submissions hedged (ceiling {:.0} %)",
            100.0 * hedge_rate,
            100.0 * HEDGE_RATE_CEILING
        );
        failed = true;
    }

    let (opened, half_opened, closed) = run_a.transitions;
    println!(
        "breakers: {opened} opened, {half_opened} half-opened, {closed} closed; churn: {} \
         applied / {} skipped, {}/{HOSTS} hosts alive at the end; sheds by reason: {:?}",
        run_a.churn_applied, run_a.churn_skipped, run_a.hosts_alive, run_a.sheds_by_reason
    );

    let mut doc_entries = vec![
        ("schema".to_string(), JsonValue::String(SCHEMA_SLO.into())),
        ("git_sha".to_string(), JsonValue::String(sha.clone())),
        ("seed".to_string(), num(gate.seed as f64)),
        ("churn_enabled".to_string(), JsonValue::Bool(opts.churn)),
        (
            "force_open_breakers".to_string(),
            JsonValue::Bool(opts.force_open),
        ),
        (
            "checks".to_string(),
            obj(vec![
                ("deterministic".into(), JsonValue::Bool(true)),
                ("conservation".into(), JsonValue::Bool(snap.conserves())),
                (
                    "forensics_complete".into(),
                    JsonValue::Bool(forensics_complete),
                ),
                ("burn_quiet".into(), JsonValue::Bool(alerts.is_empty())),
            ]),
        ),
    ];
    doc_entries.extend(deterministic_sections(&run_a));
    let doc = obj(doc_entries);

    let json_path = format!("{}/BENCH_slo.json", gate.out);
    write_json(&json_path, &doc);
    let prom_path = format!("{}/BENCH_slo.prom", gate.out);
    horse_metrics::export::write_prometheus_page(
        &prom_path,
        &run_a.snapshot,
        &horse_telemetry::alloc::snapshot(),
        &horse_telemetry::contention::snapshot(),
    )
    .expect("write prometheus page");
    // Append the per-(function, host) circuit state as a labeled gauge:
    // 0 = closed, 1 = half-open, 2 = open.
    let breaker_samples: Vec<(String, u64)> = run_a
        .breaker_states
        .iter()
        .map(|((function, host), state)| {
            (
                format!("function=\"{function}\",host=\"{host}\""),
                state.gauge_value(),
            )
        })
        .collect();
    let mut breaker_page = TextExporter::new();
    breaker_page.labeled_pairs(
        "horse_breaker_state",
        "Circuit-breaker state per (function, host): 0 closed, 1 half-open, 2 open.",
        "gauge",
        &breaker_samples,
    );
    let mut prom_text = std::fs::read_to_string(&prom_path).expect("read prometheus page back");
    prom_text.push_str(&breaker_page.finish());
    std::fs::write(&prom_path, prom_text).expect("append breaker gauge");
    println!("{json_path}: {SCHEMA_SLO} (sha {sha}, seed {})", gate.seed);
    println!("{prom_path}: Prometheus text-format page (+ horse_breaker_state gauge)");

    // Postmortem artifacts: the stitch ledger + burn windows + flight
    // recorder as JSON, and the retained worst trees as a Chrome trace
    // with flow arrows (open in Perfetto).
    let forensics_doc = obj(vec![
        (
            "schema".to_string(),
            JsonValue::String(SCHEMA_FORENSICS.into()),
        ),
        ("git_sha".to_string(), JsonValue::String(sha.clone())),
        ("seed".to_string(), num(gate.seed as f64)),
        ("slowdown_splice".to_string(), num(opts.slowdown_splice)),
        (
            "stitch".to_string(),
            obj(vec![
                ("trees".into(), num(forensics_a.trees.len() as f64)),
                (
                    "orphan_events".into(),
                    num(forensics_a.orphan_events as f64),
                ),
                ("extra_roots".into(), num(forensics_a.extra_roots as f64)),
                (
                    "untraced_events".into(),
                    num(forensics_a.untraced_events as f64),
                ),
                (
                    "dropped_events".into(),
                    num(forensics_a.dropped_events as f64),
                ),
                (
                    "fingerprint".into(),
                    JsonValue::String(format!("{:016x}", forensics_a.fingerprint())),
                ),
            ]),
        ),
        ("burn".to_string(), monitor.to_json()),
        ("flight_recorder".to_string(), flight.to_json()),
    ]);
    let forensics_path = format!("{}/BENCH_forensics.json", gate.out);
    write_json(&forensics_path, &forensics_doc);
    let trace_path = format!("{}/BENCH_forensics.trace.json", gate.out);
    let mut trace_text = flight.to_chrome_trace();
    trace_text.push('\n');
    std::fs::write(&trace_path, trace_text).unwrap_or_else(|e| panic!("write {trace_path}: {e}"));
    println!("{forensics_path}: {SCHEMA_FORENSICS}");
    println!(
        "{trace_path}: Chrome trace with flow events ({} trees)",
        flight.len()
    );
    if let Some(worst_ull) = flight
        .trees()
        .find(|t| t.stamp().is_some_and(|s| s.class_label() == "ull"))
    {
        println!("postmortem: worst uLL span tree —");
        print!("{}", worst_ull.render_ascii());
    }

    // The baseline stores (and gates on) the deterministic sections only.
    failed |= !gate.settle(&obj(vec![("slo_doc".to_string(), sections_a)]));

    if failed {
        std::process::exit(1);
    }
}
