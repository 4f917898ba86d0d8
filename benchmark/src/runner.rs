//! Runs one workload, untraced (end-to-end metrics) or traced
//! (per-layer metrics), and builds its [`RunReport`].

use std::path::Path;
use std::time::Instant;

use crate::layers::Probes;
use crate::machine::{nproc, peak_rss_mb};
use crate::report::{Metric, RunReport};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::reliab_open::ReliabOpen;
use crate::workloads::traced_mix::TracedMix;
use crate::workloads::ull_batch_2t::UllBatch2t;
use crate::workloads::ull_seq::UllSeq;
use crate::workloads::wide_resume::WideResume;
use crate::workloads::{Check, Measured, Workload, ROOT_SPAN};

/// Workload names, in report order.
pub const WORKLOADS: [&str; 5] = [
    UllSeq::NAME,
    UllBatch2t::NAME,
    ReliabOpen::NAME,
    TracedMix::NAME,
    WideResume::NAME,
];

/// In-process set-ups per untraced run. `setup_s` is their median; their
/// virtual fingerprints must all agree (the same-seed determinism
/// check).
const SETUP_REPS: usize = 5;

/// Share of the window the traced pass of the workload runs for, and the
/// share of the untraced pass it is compared against.
const TRACED_SHARE: f64 = 0.3;
const REFERENCE_SHARE: f64 = 0.2;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Measured-window seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub traced: bool,
    /// Directory the Chrome trace is written to.
    pub out_dir: String,
}

/// Runs the named workload.
///
/// # Errors
///
/// An unknown name, or a workload needing more driver threads than the
/// machine has CPUs.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<RunReport, String> {
    match workload {
        UllSeq::NAME => run_workload::<UllSeq>(cfg),
        UllBatch2t::NAME => run_workload::<UllBatch2t>(cfg),
        ReliabOpen::NAME => run_workload::<ReliabOpen>(cfg),
        TracedMix::NAME => run_workload::<TracedMix>(cfg),
        WideResume::NAME => run_workload::<WideResume>(cfg),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn run_workload<W: Workload>(cfg: &RunConfig) -> Result<RunReport, String> {
    if W::THREADS > nproc() {
        return Err(format!(
            "{} needs {} driver threads but this machine has {} CPU(s)",
            W::NAME,
            W::THREADS,
            nproc()
        ));
    }
    let report = if cfg.traced {
        traced::<W>(cfg)
    } else {
        untraced::<W>(cfg)
    };
    Ok(report)
}

fn failed_share(m: &Measured) -> f64 {
    (m.attempted - m.succeeded) as f64 / m.attempted.max(1) as f64
}

/// The three end-to-end metrics `BENCHMARK.json` lists under `per_layer`
/// (see README "Demoted metrics"): exact, so never a driver-gated time.
fn demoted(m: &Measured) -> [Metric; 3] {
    [
        Metric::new(
            "virt_init_p50_ns",
            m.virt_init.percentile(50.0) as f64,
            "virt_ns",
        ),
        Metric::new(
            "virt_init_p99_ns",
            m.virt_init.percentile(99.0) as f64,
            "virt_ns",
        ),
        Metric::new("failed_share", failed_share(m), "ratio"),
    ]
}

fn untraced<W: Workload>(cfg: &RunConfig) -> RunReport {
    let input = W::input(cfg.seed, cfg.seconds);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut fingerprints = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take()); // tear-down is not set-up time
        let t0 = Instant::now();
        let (built, fingerprint) = W::setup(cfg.seed, &input);
        setups.push(t0.elapsed().as_secs_f64());
        fingerprints.push(fingerprint);
        state = Some(built);
    }
    let mut state = state.expect("SETUP_REPS > 0");
    let measured = W::run(&mut state, &input, cfg.seconds, None);
    drop(state);

    let summary = measured.window.summary();
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("throughput_ops_s", summary.throughput_ops_s, "ops/s"),
        Metric::new("wall_p50_ns", summary.wall_p50_ns, "ns"),
        Metric::new("wall_p99_ns", summary.wall_p99_ns, "ns"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let mut info = demoted(&measured).to_vec();
    info.push(Metric::new("wall_samples", summary.samples as f64, "count"));
    if let Some(pct) = summary.tail_pct {
        info.push(Metric::new("wall_tail_percentile", pct, "%"));
        info.push(Metric::new("wall_tail_ns", summary.tail_ns, "ns"));
    }
    info.push(Metric::new("wall_max_ns", summary.max_ns as f64, "ns"));
    info.extend(measured.extras);

    let mut checks = measured.checks;
    checks.push(Check {
        name: "same-seed virtual results identical across in-process set-ups",
        ok: fingerprints.windows(2).all(|w| w[0] == w[1]),
        detail: format!("{fingerprints:x?}"),
    });
    RunReport {
        workload: W::NAME,
        traced: false,
        seed: cfg.seed,
        seconds: cfg.seconds,
        threads: W::THREADS,
        attempted: measured.attempted,
        failed: measured.attempted - measured.succeeded,
        metrics,
        info,
        checks,
    }
}

fn traced<W: Workload>(cfg: &RunConfig) -> RunReport {
    let mut tracer = Tracer::new();

    // The workload with a span around every call into the program …
    let traced_s = (cfg.seconds * TRACED_SHARE).max(0.2);
    let input = W::input(cfg.seed, traced_s);
    let (mut state, _) = W::setup(cfg.seed, &input);
    let t0 = Instant::now();
    let measured = W::run(&mut state, &input, traced_s, Some(&mut tracer));
    let ran_ns = t0.elapsed().as_nanos() as u64;
    tracer.span(ROOT_SPAN, 0, ran_ns, None, 0);
    drop(state);
    // … against the same workload untraced: the difference is what the
    // tracing costs.
    let reference_s = (cfg.seconds * REFERENCE_SHARE).max(0.2);
    let input = W::input(cfg.seed, reference_s);
    let (mut state, _) = W::setup(cfg.seed, &input);
    let reference = W::run(&mut state, &input, reference_s, None);
    drop(state);
    let traced_tput = measured.window.summary().throughput_ops_s;
    let plain_tput = reference.window.summary().throughput_ops_s;

    // The probes' spans share the workload pass's time origin.
    let mut metrics = Probes::new(cfg.seed, cfg.seconds, t0, &mut tracer).run();
    metrics.push(Metric::new(
        "driver.trace_overhead_pct",
        100.0 * (plain_tput - traced_tput) / plain_tput.max(1.0),
        "%",
    ));
    metrics.extend(demoted(&measured));

    let mut checks = measured.checks;
    checks.extend(reference.checks);
    let trace_path = Path::new(&cfg.out_dir).join(format!("trace-{}.json", W::NAME));
    let written = tracer.write_chrome(&trace_path, W::NAME);
    checks.push(Check {
        name: "Chrome trace written",
        ok: written.is_ok(),
        detail: format!("{}: {written:?}", trace_path.display()),
    });
    let mut info = vec![
        Metric::new("traced_throughput_ops_s", traced_tput, "ops/s"),
        Metric::new("untraced_throughput_ops_s", plain_tput, "ops/s"),
    ];
    // Per span kind: how many, and mean self time (span minus children).
    let self_ns = tracer.self_totals_ns();
    for (kind, totals) in tracer.totals() {
        let label = match kind {
            (name, Some(parent)) => format!("span.{parent}/{name}"),
            (name, None) => format!("span.{name}"),
        };
        info.push(Metric::new(
            format!("{label}.count"),
            totals.count as f64,
            "count",
        ));
        info.push(Metric::new(
            format!("{label}.self_ns_mean"),
            self_ns[kind] as f64 / totals.count.max(1) as f64,
            "ns",
        ));
    }
    RunReport {
        workload: W::NAME,
        traced: true,
        seed: cfg.seed,
        seconds: cfg.seconds,
        threads: W::THREADS,
        attempted: measured.attempted,
        failed: measured.attempted - measured.succeeded,
        metrics,
        info,
        checks,
    }
}
