//! The repo's wall-clock benchmark (see `benchmark/README.md`).
//!
//! * `--workload W --trace 0|1 [--seed N] [--seconds S] [--out DIR]` —
//!   one run in this process: every metric by name with its unit, the
//!   output checks, and as the last line of standard output the result
//!   object. Exit code 1 when a check fails.
//! * no `--trace` — the full set: each workload in its own process,
//!   untraced, then the traced pass; `--repeat N` repeats the set. Writes
//!   `DIR/result.json`.
//! * `--compare A.json B.json` — per (metric, workload) verdicts.
//!
//! Two time axes, always named: **wall** = host nanoseconds the
//! implementation takes (`wall_*`, `throughput_*`); **virt** = simulated
//! nanoseconds of the modelled hypervisor (`virt_*`), bit-reproducible at
//! one driver and compared exactly.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use horse_telemetry::json::{self, JsonValue};

mod affinity;
mod compare;
mod layers;
mod machine;
mod report;
mod runner;
mod schedule;
mod stats;
mod trace;
mod window;
mod workloads;

use compare::Spec;
use report::{Metric, RunReport};
use runner::{RunConfig, WORKLOADS};
use workloads::Check;

// Counts allocations only while the profiling plane is enabled (the
// traced run's `telemetry.allocs_per_op` probe); otherwise one relaxed
// load per allocation, and the measured loops do not allocate.
#[global_allocator]
static ALLOC: horse_telemetry::CountingAlloc = horse_telemetry::CountingAlloc;

const USAGE: &str = "usage: horse-benchmark [--workload <name>] [--seed <u64>] \
[--seconds <1..60>] [--trace <0|1>] [--out <dir>] [--repeat <n>] | --compare <A.json> <B.json>";

/// Paper reference points printed beside the virtual-axis numbers.
const PAPER_HORSE_RESUME_NS: f64 = 170.0;
const PAPER_SPEEDUP_36: f64 = 7.16;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: String,
    repeat: usize,
    compare: Option<(String, String)>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: None,
        out: "benchmark/out".to_string(),
        repeat: 1,
        compare: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}; {USAGE}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}; {USAGE}"))?;
            }
            "--seconds" => {
                opts.seconds = value("seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}; {USAGE}"))?;
                if !(1.0..=60.0).contains(&opts.seconds) {
                    return Err(format!("--seconds must be within 1..=60; {USAGE}"));
                }
            }
            "--trace" => {
                opts.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1; {USAGE}")),
                });
            }
            "--out" => opts.out = value("a directory")?,
            "--repeat" => {
                opts.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}; {USAGE}"))?;
                if opts.repeat == 0 {
                    return Err(format!("--repeat must be at least 1; {USAGE}"));
                }
            }
            "--compare" => opts.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument `{other}`; {USAGE}")),
        }
    }
    if let Some(w) = &opts.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (known: {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(opts)
}

/// The reported metric names must be exactly the set `BENCHMARK.json`
/// declares for this kind of run, or a later PR compares the wrong
/// things.
fn spec_check(report: &RunReport) -> Option<Check> {
    let spec = match Spec::load()? {
        Ok(spec) => spec,
        Err(e) => {
            return Some(Check {
                name: "BENCHMARK.json parses",
                ok: false,
                detail: e,
            })
        }
    };
    let mut declared = spec.names(report.traced);
    let mut reported: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    declared.sort_unstable();
    reported.sort_unstable();
    let missing: Vec<_> = declared.iter().filter(|n| !reported.contains(n)).collect();
    let extra: Vec<_> = reported.iter().filter(|n| !declared.contains(n)).collect();
    Some(Check {
        name: "reported metrics == BENCHMARK.json",
        ok: missing.is_empty() && extra.is_empty(),
        detail: format!("missing {missing:?}, undeclared {extra:?}"),
    })
}

/// Reference lines for the virtual axis.
fn paper_notes(report: &mut RunReport) {
    report.info.push(Metric::new(
        "paper.horse_resume_ns",
        PAPER_HORSE_RESUME_NS,
        "virt_ns",
    ));
    if report.traced {
        report.info.push(Metric::new(
            "paper.virt_speedup.v36",
            PAPER_SPEEDUP_36,
            "ratio",
        ));
    }
}

fn run_file(out: &str, workload: &str, traced: bool) -> PathBuf {
    Path::new(out).join(format!("run-{workload}-t{}.json", u8::from(traced)))
}

/// One run in this process.
fn single(opts: &Options, workload: &str, traced: bool) -> ExitCode {
    let cfg = RunConfig {
        seed: opts.seed,
        seconds: opts.seconds,
        traced,
        out_dir: opts.out.clone(),
    };
    let mut report = match runner::run(workload, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    report.checks.extend(spec_check(&report));
    paper_notes(&mut report);
    if let Ok(build_s) = std::env::var("HORSE_BENCH_BUILD_S") {
        // Compile time depends on cache state, so it stays outside the
        // metric set.
        if let Ok(v) = build_s.parse::<f64>() {
            report.info.push(Metric::new("build_s", v, "s"));
        }
    }
    let machine = machine::descriptor(opts.seed, opts.seconds);
    println!("machine {}", machine.render());
    let path = run_file(&opts.out, workload, traced);
    if let Err(e) = compare::write_result_file(&path, machine, vec![report.file_entry()]) {
        report.checks.push(Check {
            name: "result file written",
            ok: false,
            detail: format!("{}: {e}", path.display()),
        });
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The full set: every selected workload in its own process, untraced
/// first, then the traced pass; `--repeat` times over.
fn full_set(opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&str> = match &opts.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut entries = Vec::new();
    let mut failures = 0usize;
    for round in 0..opts.repeat {
        for traced in [false, true] {
            for workload in &selected {
                if opts.repeat > 1 {
                    println!("-- round {} of {} --", round + 1, opts.repeat);
                }
                let status = Command::new(&exe)
                    .args(["--workload", workload])
                    .args(["--seed", &opts.seed.to_string()])
                    .args(["--seconds", &opts.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .args(["--out", &opts.out])
                    .stdin(Stdio::null())
                    .status();
                match status {
                    Ok(s) if s.success() => {}
                    Ok(s) => {
                        eprintln!("error: {workload} (trace {traced}) exited with {s}");
                        failures += 1;
                    }
                    Err(e) => {
                        eprintln!("error: cannot run {workload}: {e}");
                        failures += 1;
                        continue;
                    }
                }
                let path = run_file(&opts.out, workload, traced);
                match std::fs::read_to_string(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| json::parse(&text))
                {
                    Ok(file) => entries.extend(
                        file.get("runs")
                            .and_then(JsonValue::as_array)
                            .unwrap_or_default()
                            .iter()
                            .cloned(),
                    ),
                    Err(e) => {
                        eprintln!("error: {}: {e}", path.display());
                        failures += 1;
                    }
                }
            }
        }
    }
    let path = Path::new(&opts.out).join("result.json");
    let machine = machine::descriptor(opts.seed, opts.seconds);
    match compare::write_result_file(&path, machine, entries) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            failures += 1;
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let spec = match Spec::load() {
        Some(Ok(spec)) => spec,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        None => {
            eprintln!("error: --compare reads the bounds from ./BENCHMARK.json; run it from the repo root");
            return ExitCode::from(2);
        }
    };
    let pairs = match compare::PairBounds::load() {
        Ok(pairs) => pairs,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match (compare::load_samples(a), compare::load_samples(b)) {
        (Ok(a), Ok(b)) => {
            let rows = compare::compare(&spec, &pairs, &a, &b);
            if compare::print_rows(&rows) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &opts.compare {
        return compare_files(a, b);
    }
    match (&opts.workload, opts.trace) {
        (Some(workload), Some(traced)) => single(&opts, workload, traced),
        (None, Some(_)) => {
            eprintln!("error: --trace selects one run and needs --workload; {USAGE}");
            ExitCode::from(2)
        }
        (_, None) => full_set(&opts),
    }
}
